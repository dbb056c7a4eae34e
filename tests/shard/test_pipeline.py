"""ShardedCamPipeline: scatter-gather equivalence with one CamArray."""

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.cam.dynamic import DynamicCam, DynamicCamConfig
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.exec import EXECUTOR_NAMES
from repro.serve.metrics import RecordingObserver
from repro.shard import ShardedCamPipeline


WORD_BITS = 192


def reference_array(bits, word_bits=WORD_BITS, **kwargs):
    cam = CamArray(rows=bits.shape[0], word_bits=word_bits, **kwargs)
    cam.write_rows(bits)
    return cam


def make_pipeline(bits, **kwargs):
    pipeline = ShardedCamPipeline(total_rows=bits.shape[0],
                                  word_bits=WORD_BITS, **kwargs)
    pipeline.write_rows(bits)
    return pipeline


@pytest.fixture
def stored_bits(rng):
    return rng.integers(0, 2, size=(30, WORD_BITS), dtype=np.uint8)


@pytest.fixture
def queries(rng):
    return rng.integers(0, 2, size=(11, WORD_BITS), dtype=np.uint8)


class TestSearchEquivalence:
    @pytest.mark.parametrize("fanout", ["fused", "ports"])
    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 30])
    def test_distances_match_single_array(self, stored_bits, queries,
                                          num_shards, policy, fanout):
        reference = reference_array(stored_bits)
        expected, expected_energy, expected_latency = (
            reference.search_batch(queries))
        pipeline = make_pipeline(stored_bits, num_shards=num_shards,
                                 policy=policy, fanout=fanout)
        distances, energy, latency = pipeline.search_batch(queries)
        assert np.array_equal(distances, expected)
        assert energy == pytest.approx(expected_energy, rel=1e-12)
        assert latency == expected_latency

    def test_packed_path_matches_bit_path(self, stored_bits, queries):
        from repro.bitops import pack_bits

        pipeline = make_pipeline(stored_bits, num_shards=4)
        from_bits, energy_a, _ = pipeline.search_batch(queries)
        from_packed, energy_b, _ = pipeline.search_batch_packed(
            pack_bits(queries))
        assert np.array_equal(from_bits, from_packed)
        assert energy_a == pytest.approx(energy_b, rel=1e-12)

    def test_unpopulated_rows_report_minus_one(self, rng, queries):
        bits = rng.integers(0, 2, size=(10, WORD_BITS), dtype=np.uint8)
        pipeline = ShardedCamPipeline(total_rows=30, word_bits=WORD_BITS,
                                      num_shards=3)
        pipeline.write_rows(bits, start_row=5)
        distances, _, _ = pipeline.search_batch(queries)
        populated = np.zeros(30, dtype=bool)
        populated[5:15] = True
        assert np.all(distances[:, ~populated] == -1)
        assert np.all(distances[:, populated] >= 0)
        assert pipeline.occupancy == 10

    def test_empty_batch_is_a_noop(self, stored_bits):
        pipeline = make_pipeline(stored_bits, num_shards=3)
        distances, energy, latency = pipeline.search_batch(
            np.zeros((0, WORD_BITS), dtype=np.uint8))
        assert distances.shape == (0, 30)
        assert energy == 0.0 and latency == 0
        assert pipeline.search_count == 0

    def test_noisy_sense_amp_is_bit_identical(self, stored_bits, queries):
        noisy = dict(timing_noise_sigma_ps=50.0, seed=9)
        reference = reference_array(
            stored_bits,
            sense_amp=ClockedSelfReferencedSenseAmp(word_bits=WORD_BITS,
                                                    **noisy))
        pipeline = make_pipeline(
            stored_bits, num_shards=5, policy="strided",
            sense_amp=ClockedSelfReferencedSenseAmp(word_bits=WORD_BITS,
                                                    **noisy))
        for _ in range(3):  # the noise streams must stay in lock-step
            expected, _, _ = reference.search_batch(queries)
            distances, _, _ = pipeline.search_batch(queries)
            assert np.array_equal(distances, expected)


class TestReplicasAndWorkers:
    def test_replicas_serve_identical_results(self, stored_bits, queries):
        pipeline = make_pipeline(stored_bits, num_shards=3, num_replicas=3,
                                 routing="round_robin")
        first, _, _ = pipeline.search_batch(queries)
        for _ in range(5):  # round-robin walks every replica
            distances, _, _ = pipeline.search_batch(queries)
            assert np.array_equal(distances, first)
        selections = pipeline.router.stats()["selections"]
        assert all(all(count > 0 for count in per_shard)
                   for per_shard in selections)

    def test_worker_pool_fanout_matches_inline(self, stored_bits, queries):
        inline = make_pipeline(stored_bits, num_shards=4, fanout="ports",
                               num_workers=1)
        pooled = make_pipeline(stored_bits, num_shards=4, fanout="ports",
                               num_workers=4)
        try:
            a, ea, _ = inline.search_batch(queries)
            b, eb, _ = pooled.search_batch(queries)
            assert np.array_equal(a, b)
            assert ea == pytest.approx(eb, rel=1e-12)
        finally:
            pooled.close()

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("method", ["search_batch_packed", "topk_packed"])
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    @pytest.mark.parametrize("fanout", ["fused", "ports"])
    def test_observers_hear_every_shard(self, stored_bits, queries, fanout,
                                        executor, method, noisy):
        recorder = RecordingObserver()
        sense_amp = ClockedSelfReferencedSenseAmp(
            word_bits=WORD_BITS, timing_noise_sigma_ps=50.0 if noisy else 0.0,
            seed=9)
        pipeline = make_pipeline(stored_bits, num_shards=4, num_replicas=2,
                                 fanout=fanout, executor=executor,
                                 num_workers=2, sense_amp=sense_amp,
                                 observers=(recorder,))
        try:
            assert_one_event_per_shard(pipeline, recorder, queries, method)
        finally:
            pipeline.close()

    @pytest.mark.parametrize("method", ["search_batch_packed", "topk_packed"])
    def test_remote_observers_hear_every_shard(self, stored_bits, queries,
                                               method):
        from repro.net.cluster import LocalShardCluster
        from repro.net.remote import RemoteCamCluster

        recorder = RecordingObserver()
        with LocalShardCluster(total_rows=stored_bits.shape[0],
                               word_bits=WORD_BITS, num_shards=4,
                               num_replicas=2) as cluster:
            remote = RemoteCamCluster(cluster.endpoints,
                                      total_rows=stored_bits.shape[0],
                                      word_bits=WORD_BITS,
                                      observers=(recorder,))
            remote.write_rows(stored_bits)
            try:
                assert_one_event_per_shard(remote, recorder, queries, method)
            finally:
                remote.close()


def assert_one_event_per_shard(pipeline, recorder, queries, method):
    """Two calls, each emitting exactly one valid event per shard."""
    from repro.bitops import pack_bits

    packed = pack_bits(queries)
    for call in range(1, 3):
        if method == "topk_packed":
            pipeline.topk_packed(packed, 3)
        else:
            pipeline.search_batch_packed(packed)
        events = recorder.of("shard_search_completed")
        assert len(events) == call * pipeline.num_shards
        latest = events[-pipeline.num_shards:]
        assert sorted(event[0] for event in latest) == list(
            range(pipeline.num_shards))
        for _shard, replica, count, service_ms in latest:
            assert 0 <= replica < pipeline.num_replicas
            assert count == queries.shape[0]
            assert service_ms >= 0.0


class TestRestructuring:
    @pytest.mark.parametrize("fanout", ["fused", "ports"])
    def test_rebalance_and_add_shard_preserve_results(self, stored_bits,
                                                      queries, fanout):
        reference = reference_array(stored_bits)
        expected, _, _ = reference.search_batch(queries)
        pipeline = make_pipeline(stored_bits, num_shards=2, fanout=fanout)
        baseline_energy = pipeline.search_batch(queries)[1]
        pipeline.add_shard()
        assert pipeline.num_shards == 3
        distances, energy, _ = pipeline.search_batch(queries)
        assert np.array_equal(distances, expected)
        assert energy == pytest.approx(baseline_energy, rel=1e-12)
        pipeline.rebalance(num_shards=6, policy="strided")
        assert pipeline.plan.policy == "strided"
        distances, _, _ = pipeline.search_batch(queries)
        assert np.array_equal(distances, expected)

    def test_accounting_survives_rebalance(self, stored_bits, queries):
        pipeline = make_pipeline(stored_bits, num_shards=2)
        pipeline.search_batch(queries)
        energy_before = pipeline.accumulated_search_energy_pj
        count_before = pipeline.search_count
        assert energy_before > 0.0
        pipeline.rebalance(num_shards=5)
        assert pipeline.accumulated_search_energy_pj == energy_before
        assert pipeline.search_count == count_before

    def test_worker_pool_survives_rebalance(self, stored_bits, queries):
        # The ports-mode pool is created once and never torn down by a
        # rebalance, so a search that snapshotted it can always submit.
        pipeline = make_pipeline(stored_bits, num_shards=4, fanout="ports",
                                 num_workers=4)
        try:
            reference = reference_array(stored_bits)
            expected, _, _ = reference.search_batch(queries)
            a, _, _ = pipeline.search_batch(queries)
            executor = pipeline._plane
            assert executor is not None
            pipeline.rebalance(num_shards=6, policy="strided")
            assert pipeline._plane is executor
            b, _, _ = pipeline.search_batch(queries)
            assert np.array_equal(a, expected)
            assert np.array_equal(b, expected)
        finally:
            pipeline.close()

    def test_fused_mode_never_creates_a_worker_pool(self, stored_bits, queries):
        pipeline = make_pipeline(stored_bits, num_shards=4, num_workers=4)
        pipeline.search_batch(queries)
        assert pipeline._plane is None

    def test_writes_after_rebalance_land_in_new_plan(self, rng, queries):
        pipeline = ShardedCamPipeline(total_rows=30, word_bits=WORD_BITS,
                                      num_shards=2)
        first = rng.integers(0, 2, size=(15, WORD_BITS), dtype=np.uint8)
        pipeline.write_rows(first)
        pipeline.rebalance(num_shards=3, policy="strided")
        second = rng.integers(0, 2, size=(15, WORD_BITS), dtype=np.uint8)
        pipeline.write_rows(second, start_row=15)
        reference = reference_array(np.vstack((first, second)))
        expected, _, _ = reference.search_batch(queries)
        distances, _, _ = pipeline.search_batch(queries)
        assert np.array_equal(distances, expected)


class TestDynamicCamPorts:
    def test_dynamic_cam_ports_match_single_dynamic_cam(self, rng):
        word_bits = 512

        def factory(rows):
            cam = DynamicCam(DynamicCamConfig(rows=rows))
            cam.configure_word_bits(word_bits)
            return cam

        bits = rng.integers(0, 2, size=(24, word_bits), dtype=np.uint8)
        queries = rng.integers(0, 2, size=(7, word_bits), dtype=np.uint8)
        pipeline = ShardedCamPipeline(total_rows=24, word_bits=word_bits,
                                      num_shards=4, port_factory=factory)
        pipeline.write_rows(bits)
        # DynamicCam lacks the analytic surface: fused degrades to ports.
        assert pipeline.stats()["fanout"] == "ports"
        reference = factory(24)
        reference.write_rows(bits)
        expected, expected_energy, _ = reference.search_batch(queries)
        distances, energy, _ = pipeline.search_batch(queries)
        assert np.array_equal(distances, expected)
        assert energy == pytest.approx(expected_energy, rel=1e-12)


class TestValidation:
    def test_rejects_bad_writes_and_queries(self, stored_bits):
        pipeline = make_pipeline(stored_bits, num_shards=3)
        with pytest.raises(ValueError):
            pipeline.write_rows(np.ones((2, WORD_BITS + 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            pipeline.write_rows(np.full((2, WORD_BITS), 2, dtype=np.uint8))
        with pytest.raises(ValueError):
            pipeline.write_rows(np.ones((31, WORD_BITS), dtype=np.uint8))
        with pytest.raises(ValueError):
            pipeline.search_batch(np.ones((2, WORD_BITS - 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            pipeline.search_batch_packed(np.zeros((2, 99), dtype=np.uint64))
        with pytest.raises(ValueError):
            ShardedCamPipeline(total_rows=8, word_bits=64, fanout="magic")

    def test_stats_snapshot(self, stored_bits, queries):
        pipeline = make_pipeline(stored_bits, num_shards=3, num_replicas=2)
        pipeline.search_batch(queries)
        stats = pipeline.stats()
        assert stats["total_rows"] == 30
        assert stats["num_shards"] == 3
        assert stats["num_replicas"] == 2
        assert stats["fanout"] == "fused"
        assert stats["batches"] == 1
        assert stats["search_count"] == queries.shape[0] * 3
        assert stats["router"]["policy"] == "round_robin"
