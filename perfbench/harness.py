"""Shared pieces of the contract benchmark.

* :class:`SpanLog` -- the benchmark's own in-memory span store (name,
  monotonic start/end, thread), written out when a run ends;
* timing proxies that wrap *public* objects of the program (the engine
  handed to a server, its ``hasher``/``cam``/``cosine_unit`` ports, the
  ``Transport`` handed to ``NetClient``) and record one span per call;
* :class:`FlipOneLogit`, the fault-injecting engine proxy the self-test
  uses to prove that an oracle mismatch is caught;
* small statistics helpers and the environment stamp.

Nothing here changes what the program computes: every proxy forwards the
call and returns the program's own result object.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np


# -- statistics ----------------------------------------------------------------


def pct(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def latency_summary(values_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 with the sample count (p99 is diagnostic only)."""
    return {"p50": pct(values_ms, 50), "p90": pct(values_ms, 90),
            "p99": pct(values_ms, 99), "n": len(values_ms)}


def windows(stamps_s: Sequence[float], values: Sequence[float],
            window_s: float) -> List[List[float]]:
    """``values`` grouped by ``window_s``-second windows of their time stamps.

    The last window is partial and is dropped when there are others.
    """
    if len(stamps_s) == 0:
        return []
    origin = min(stamps_s)
    groups: Dict[int, List[float]] = {}
    for stamp, value in zip(stamps_s, values):
        groups.setdefault(int((stamp - origin) // window_s), []).append(value)
    ordered = [groups[key] for key in sorted(groups)]
    return ordered[:-1] if len(ordered) > 1 else ordered


def windowed_latency(stamps_s: Sequence[float], values_ms: Sequence[float],
                     window_s: float) -> Dict[str, float]:
    """p50/p90 as the median over time windows of each window's percentile.

    A stall of the host that covers less than half of a run's windows
    leaves them unmoved, where pooled percentiles would take it in.  p99
    is pooled (diagnostic only).
    """
    groups = windows(stamps_s, values_ms, window_s)
    return {"p50": float(np.median([pct(w, 50) for w in groups])) if groups else 0.0,
            "p90": float(np.median([pct(w, 90) for w in groups])) if groups else 0.0,
            "p99": pct(values_ms, 99), "n": len(values_ms), "windows": len(groups)}


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(build, teardown, repeats: int) -> tuple[float, Any]:
    """Run ``build`` ``repeats`` times; median seconds and the last result.

    Every build but the last is torn down immediately, so the workload
    runs on a fresh set-up whose cost is the reported median.
    """
    times = []
    built = None
    for index in range(repeats):
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
        if index < repeats - 1:
            teardown(built)
    return float(np.median(times)), built


# -- spans ---------------------------------------------------------------------


class SpanLog:
    """Append-only store of the benchmark's own timing spans.

    ``list.append`` is atomic under the interpreter lock, so proxies on
    server worker threads and client threads record without a lock.  A
    span is ``(name, start_ns, end_ns, thread_id, attrs)`` on the
    ``time.monotonic_ns`` clock -- the clock the program's own spans use,
    so both kinds can be compared interval by interval.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs: Any):
        start = time.monotonic_ns()
        try:
            yield attrs
        finally:
            self.spans.append((name, start, time.monotonic_ns(),
                               threading.get_ident(), attrs))

    def named(self, name: str) -> List[tuple]:
        return [span for span in self.spans if span[0] == name]

    def durations_ms(self, name: str) -> List[float]:
        return [(span[2] - span[1]) / 1e6 for span in self.named(name)]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [{"name": n, "start_ns": s, "end_ns": e, "thread": t,
                 "attributes": a} for n, s, e, t, a in self.spans]


def covered_ns(start: int, end: int, intervals: Iterable[tuple]) -> int:
    """Length of ``[start, end)`` covered by the union of ``(s, e)`` pairs."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total, cursor = 0, start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


# -- timing proxies ------------------------------------------------------------


class _Proxy:
    """Forwards every attribute it does not time to the wrapped object."""

    def __init__(self, inner: Any, log: Optional[SpanLog] = None) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_log", log)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedHasher(_Proxy):
    """Times the engine's batched hashing GEMM (``repro.core.hashing``)."""

    def hash_batch_with_norms(self, data: np.ndarray):
        with self._log.span("hash", rows=int(np.shape(data)[0])):
            return self._inner.hash_batch_with_norms(data)


class TimedCam(_Proxy):
    """Times the engine's CAM port: packed search and top-k retrieval."""

    def search_batch_packed(self, packed: np.ndarray):
        with self._log.span("search", queries=int(packed.shape[0]),
                            words=int(packed.shape[1])):
            return self._inner.search_batch_packed(packed)

    def topk_packed(self, packed: np.ndarray, k: int):
        with self._log.span("topk", queries=int(packed.shape[0])) as attrs:
            result = self._inner.topk_packed(packed, k)
            attrs["gathered_values"] = int(result.gathered_values)
            return result


class TimedCosine(_Proxy):
    """Times the hardware cosine unit that digitises angles to cosines."""

    def __call__(self, thetas: np.ndarray):
        with self._log.span("digitise", values=int(np.size(thetas))):
            return self._inner(thetas)


class TimedEngine(_Proxy):
    """The engine handed to ``MicroBatchServer``/``NetServer``.

    ``prepare`` keeps the ``want_keys`` keyword in its signature, because
    the server inspects it to decide whether to ask for cache keys.
    """

    def prepare(self, queries: np.ndarray, want_keys: bool = True):
        with self._log.span("prepare", rows=int(np.shape(queries)[0])):
            return self._inner.prepare(queries, want_keys=want_keys)


def instrument_engine(engine: Any, log: SpanLog) -> TimedEngine:
    """Wrap a CAM pipeline engine's public ports and the engine itself."""
    engine.hasher = TimedHasher(engine.hasher, log)
    engine.cam = TimedCam(engine.cam, log)
    engine.cosine_unit = TimedCosine(engine.cosine_unit, log)
    return TimedEngine(engine, log)


class TimedTransport(_Proxy):
    """The single-attempt ``Transport`` handed to ``NetClient``."""

    def send_once(self, method: str, path: str, body: bytes = b"",
                  headers=None):
        with self._log.span("transport", path=path):
            return self._inner.send_once(method, path, body, headers)


class FlipOneLogit(_Proxy):
    """Fault injection: negates one logit in every classify batch."""

    def execute(self, prepared):
        logits = np.array(self._inner.execute(prepared), dtype=np.float64)
        if logits.size:
            logits[0, 0] = -logits[0, 0] + 1.0
        return logits


# -- environment stamp ---------------------------------------------------------


def _blas() -> Dict[str, Any]:
    """The BLAS numpy runs on, with its thread count as the library reports it.

    Reads the count through the bundled OpenBLAS getter; never sets it.
    """
    info: Dict[str, Any] = {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "library": None, "num_threads": None, "config": None,
    }
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    candidates = sorted(glob.glob(os.path.join(libdir, "*openblas*")))
    if not candidates:
        return info
    lib = ctypes.CDLL(candidates[0])
    info["library"] = os.path.basename(candidates[0])
    for prefix in ("", "scipy_"):
        for suffix in ("64_", ""):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if getter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            info["num_threads"] = int(getter())
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["config"] = config().decode(errors="replace").strip()
            return info
    return info


def _commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported checkout; git would search parent directories
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest(src: str) -> str:
    """BLAKE2 over every program source file: the code identity in a checkout
    that is not a git repository."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str, seed: int, trace: bool,
                cache: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "commit": _commit(root),
        "source_digest": _source_digest(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "seed": seed,
        "tracing": bool(trace),
        "cache": cache,
        "argv": sys.argv[1:],
    }
