"""A running MicroBatchServer holds the bundled OpenBLAS at one thread."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.serve import MicroBatchServer, build_demo_engine
from repro.serve import blas

pytestmark = pytest.mark.skipif(blas.thread_count() is None,
                                reason="no OpenBLAS reachable through ctypes")


@pytest.fixture
def engine():
    return build_demo_engine(classes=8, input_dim=16, hash_length=64)


@pytest.fixture
def spare_threads():
    """Start from a count above 1, so pinning is observable; restore after."""
    before = blas.thread_count()
    setter = blas._api()[0]
    setter(2)
    yield 2
    setter(before)


def test_start_pins_and_stop_restores(engine, spare_threads):
    server = MicroBatchServer(engine).start()
    try:
        assert blas.thread_count() == 1
        assert server.stats()["blas_threads"] == 1
        server.submit(np.ones(16)).result(10)
    finally:
        server.stop()
    assert blas.thread_count() == spare_threads
    assert server.stats()["blas_threads"] == spare_threads


def test_pins_nest_across_servers(engine, spare_threads):
    first = MicroBatchServer(engine).start()
    second = MicroBatchServer(engine).start()
    first.stop()
    assert blas.thread_count() == 1  # the second server still runs
    second.stop()
    assert blas.thread_count() == spare_threads


def test_stop_without_start_leaves_the_count(engine, spare_threads):
    MicroBatchServer(engine).stop()
    blas.release()  # an unmatched release is a no-op
    assert blas.thread_count() == spare_threads


def test_import_does_not_pin():
    code = ("import repro, repro.serve, repro.shard, repro.net\n"
            "from repro.serve import blas\n"
            "print(blas.thread_count())")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "2"
