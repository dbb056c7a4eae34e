"""Pipeline stage spans of a sharded top-k, local and over the wire.

A remote cluster runs the same fan-out body as the in-process ``ports``
mode, so one traced top-k must carry the same ``fanout`` / ``gather`` /
``digitise`` stages on both, with the merge nested under the fan-out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitops import pack_bits
from repro.net.cluster import LocalShardCluster
from repro.net.remote import RemoteCamCluster
from repro.obs import InMemoryExporter, Tracer, use_span
from repro.shard import ShardedCamPipeline

ROWS, BITS = 24, 128


def traced_topk(cam, queries, k=4):
    """Run one top-k under an ambient span; return its result and spans."""
    sink = InMemoryExporter()
    tracer = Tracer(exporters=[sink], flush_interval_s=0.01)
    try:
        with tracer.span("execute") as root:
            with use_span(root):
                result = cam.topk_packed(queries, k)
        assert tracer.flush()
        return result, {span["name"]: span for span in sink.spans()}
    finally:
        tracer.shutdown()


@pytest.fixture
def rows(rng):
    return rng.integers(0, 2, size=(ROWS, BITS), dtype=np.uint8)


@pytest.fixture
def queries(rng):
    return pack_bits(rng.integers(0, 2, size=(3, BITS), dtype=np.uint8))


def test_remote_topk_traces_the_gather_like_local_ports(rows, queries):
    local = ShardedCamPipeline(total_rows=ROWS, word_bits=BITS, num_shards=2,
                               fanout="ports")
    local.write_rows(rows)
    try:
        expected, local_spans = traced_topk(local, queries)
    finally:
        local.close()
    with LocalShardCluster(total_rows=ROWS, word_bits=BITS, num_shards=2,
                           num_replicas=1) as cluster:
        remote = RemoteCamCluster(cluster.endpoints, total_rows=ROWS,
                                  word_bits=BITS)
        remote.write_rows(rows)
        try:
            result, remote_spans = traced_topk(remote, queries)
        finally:
            remote.close()

    assert np.array_equal(result.indices, expected.indices)
    assert np.array_equal(result.distances, expected.distances)
    assert result.gathered_values == expected.gathered_values
    for spans in (local_spans, remote_spans):
        assert {"fanout", "gather", "digitise"} <= set(spans)
        # The candidate merge runs inside the fan-out, as it always has
        # for per-port execution.
        assert spans["gather"]["parent_id"] == spans["fanout"]["span_id"]
    assert set(remote_spans) == set(local_spans)
