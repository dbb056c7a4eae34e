"""``inproc-open``: an in-process micro-batch server, open loop and bursts.

The server is ``MicroBatchServer`` over ``build_demo_engine(classes=2048,
input_dim=256, hash_length=1024)`` with ``max_batch=64`` and the default
4096-entry cache.  Every query is unique, so every lookup misses and every
insert evicts once the cache is full: hashing, packed search, digitise and
the batcher carry the load; shard and net code stay idle.  Phases:

* ``warmup`` -- unmeasured open loop at the high rate, so lazy set-up
  (BLAS thread pools, first-touch allocations) is done before timing;
* ``low`` / ``high`` -- one generator thread submits on a seeded Poisson
  schedule at 500 and 1500 req/s through ``MicroBatchServer.submit``.
  Latency counts from each request's *due* time, so a stalled server or a
  late generator shows; percentiles are medians over 1-second windows;
* ``burst`` -- one closed-loop caller sends 64 queries at a time through
  ``ServeClient.infer_many`` and waits for all of them;
* ``capacity`` -- backlogs of 1024 requests enqueued at once; completions
  per second while each drains (median over drains).

The gated ``p50_ms``/``p90_ms`` are per ``infer_many`` call of the burst
phase, medians over 1-second windows like the open loop's.  The open-loop
latencies are reported under their own names but not gated: on a 2-core
machine they are a few milliseconds of batching window plus scheduling
delay, and CPU taken by other tenants moved their p90 by 40-130% between
runs (5 ms against 7-11 ms), beyond any usable bound; at 1500 req/s the
oversubscribed BLAS threads also let a backlog build and stay in some runs
(p50 53 ms against 6 ms).
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from typing import Any, Dict, List, Optional

import numpy as np

from harness import (FlipOneLogit, SpanLog, instrument_engine, latency_summary,
                     median_setup, pct, peak_rss_mb, windowed_latency)
from ledger import BATCH_PARTS, ServeLedger, charge_call, closure

SIZES = {
    "full": dict(classes=2048, input_dim=256, hash_length=1024,
                 low=500.0, high=1500.0, backlog=1024, burst=64),
    "tiny": dict(classes=64, input_dim=32, hash_length=256,
                 low=100.0, high=200.0, backlog=64, burst=8),
}
MAX_BATCH = 64
CACHE_CAPACITY = 4096  # the ServeConfig default, stated explicitly
#: Latency percentiles are taken per window of this many seconds (of due
#: times in the open loop, of call starts in the bursts), and the median
#: over windows is reported.
WINDOW_S = 1.0
#: Replies are checked this many at a time, so a settled phase holds at
#: most this many logits rows besides the server's own cache.
CHECK_ROWS = 256


def build_oracle(seed: int, classes: int, input_dim: int, hash_length: int):
    """Unsharded engine from the same seed as ``build_demo_engine``, and its
    prototypes (the bit-identity check also proves they are the same)."""
    from repro.serve import CamPipelineEngine
    prototypes = np.random.default_rng(seed).standard_normal((classes, input_dim))
    return CamPipelineEngine(prototypes, hash_length=hash_length, seed=seed + 1), prototypes


def oracle_logits(oracle, queries: np.ndarray) -> np.ndarray:
    return np.concatenate([oracle.execute(oracle.prepare(queries[i:i + 256]))
                           for i in range(0, len(queries), 256)])


class Queries:
    """Unique standard-normal queries, generated block by block from the seed.

    Only the block in use is kept (a block read again is generated again),
    so the benchmark's own inputs take the same memory however many
    requests a run sends.
    """

    BLOCK = 256

    def __init__(self, seed: int, dim: int) -> None:
        self.seed, self.dim = seed, dim
        self._number, self._rows = -1, np.empty((0, dim))

    def _block(self, block: int) -> np.ndarray:
        if block != self._number:
            self._rows = np.random.default_rng(
                [self.seed, 1, block]).standard_normal((self.BLOCK, self.dim))
            self._number = block
        return self._rows

    def __getitem__(self, index: int) -> np.ndarray:
        return self._block(index // self.BLOCK)[index % self.BLOCK].copy()

    def take(self, indices: List[int]) -> np.ndarray:
        return np.stack([self[i] for i in indices])


class Checker:
    """Verifies served rows against the oracle, phase by phase."""

    def __init__(self, oracle, prototypes: np.ndarray, queries: Queries) -> None:
        self.oracle, self.prototypes, self.queries = oracle, prototypes, queries
        self.checked = self.mismatched = self.agreeing = 0

    def check(self, indices: List[int], rows: List[np.ndarray]) -> None:
        for i in range(0, len(rows), CHECK_ROWS):
            served = np.stack(rows[i:i + CHECK_ROWS])
            batch = self.queries.take(indices[i:i + CHECK_ROWS])
            expected = oracle_logits(self.oracle, batch)
            self.mismatched += int(np.sum(~np.all(served == expected, axis=1)))
            self.agreeing += int(np.sum(np.argmax(served, axis=1)
                                        == np.argmax(batch @ self.prototypes.T, axis=1)))
            self.checked += len(batch)


class Phase:
    """One phase's submissions: due/sent/done times per slot.

    :meth:`settle` waits for the replies, hands them to the checker and
    keeps only which slots succeeded, so a long run holds no logits rows.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: Dict[int, float] = {}
        self.indices: List[int] = []
        self._futures: List[Optional[Any]] = []
        self.ok: List[int] = []
        self.queue_depth_end = 0
        self.origin = time.perf_counter()

    def submit(self, server, queries: Queries, index: int, due: float) -> None:
        slot = len(self.due)
        self.due.append(due)
        self.sent.append(time.perf_counter())
        self.indices.append(index)
        try:
            future = server.submit(queries[index])
        except Exception:  # noqa: BLE001 -- a refused request counts as failed
            self._futures.append(None)
            return
        done = self.done
        future.add_done_callback(
            lambda _f, slot=slot: done.__setitem__(slot, time.perf_counter()))
        self._futures.append(future)

    def settle(self, checker: Checker) -> "Phase":
        wait([f for f in self._futures if f is not None], timeout=60.0)
        indices: List[int] = []
        rows: List[np.ndarray] = []
        for slot, future in enumerate(self._futures):
            if future is not None and future.done() and future.exception() is None:
                self.ok.append(slot)
                indices.append(self.indices[slot])
                rows.append(future.result())
                if len(rows) == CHECK_ROWS:
                    checker.check(indices, rows)
                    indices, rows = [], []
            self._futures[slot] = None  # the reply lives on in ``rows`` until checked
        self._futures = []
        checker.check(indices, rows)
        return self

    @property
    def sent_count(self) -> int:
        return len(self.due)

    def latencies_ms(self) -> List[float]:
        return [(self.done[s] - self.due[s]) * 1e3 for s in self.ok]

    def windowed(self) -> Dict[str, float]:
        """p50/p90 as the median over due-time windows; p99 pooled."""
        return windowed_latency([self.due[s] for s in self.ok], self.latencies_ms(),
                                WINDOW_S)

    def late_ms(self) -> List[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    def summary(self) -> Dict[str, Any]:
        late = self.late_ms()
        return {"sent": self.sent_count, "succeeded": len(self.ok),
                "failed": self.sent_count - len(self.ok),
                "queue_depth_end": self.queue_depth_end,
                "latency_ms": latency_summary(self.latencies_ms()),
                "latency_ms_windowed": self.windowed(),
                "gen_late_ms": {"p50": pct(late, 50), "max": max(late, default=0.0)}}


def open_loop(server, queries: Queries, start: int, rate: float,
              duration_s: float, rng: np.random.Generator, name: str) -> Phase:
    """Submit on a Poisson schedule for ``duration_s`` (replies not awaited)."""
    phase = Phase(name)
    offsets = np.cumsum(rng.exponential(1.0 / rate, int(rate * duration_s * 2) + 16))
    origin = phase.origin = time.perf_counter() + 0.01
    for i, offset in enumerate(offsets[offsets < duration_s]):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.submit(server, queries, start + i, due)
    phase.queue_depth_end = server.queue_depth()
    return phase


def drain(server, queries: Queries, start: int, count: int,
          checker: Checker) -> tuple[Phase, float, float]:
    """Enqueue ``count`` requests at once; completions per second as they drain."""
    phase = Phase("capacity")
    for i in range(count):
        phase.submit(server, queries, start + i, phase.origin)
    phase.queue_depth_end = server.queue_depth()
    phase.settle(checker)
    elapsed = max(phase.done.values(), default=time.perf_counter()) - phase.origin
    return phase, len(phase.ok) / elapsed, elapsed


class Bursts:
    """Closed loop of ``infer_many`` calls, each of ``size`` unique queries."""

    name = "burst"

    def __init__(self, server, queries: Queries, start: int, size: int,
                 duration_s: float, checker: Checker) -> None:
        from repro.serve import ServeClient
        client = ServeClient(server=server)
        self.call_ms: List[float] = []
        self.began: List[float] = []
        self.failed = 0
        deadline = time.perf_counter() + duration_s
        cursor = start
        while time.perf_counter() < deadline:
            indices = list(range(cursor, cursor + size))
            cursor += size
            batch = queries.take(indices)
            began = time.perf_counter()
            try:
                rows = client.infer_many(batch)
            except Exception:  # noqa: BLE001 -- a failed call fails its requests
                self.failed += size
                continue
            self.call_ms.append((time.perf_counter() - began) * 1e3)
            self.began.append(began)
            checker.check(indices, list(rows))
        self.sent_count = cursor - start


def run(seed: int, seconds: float, trace: bool, size_name: str = "full",
        fault: bool = False) -> Dict[str, Any]:
    from repro.obs import InMemoryExporter, Tracer
    from repro.serve import MicroBatchServer, ServeConfig, build_demo_engine

    size = SIZES[size_name]
    oracle, prototypes = build_oracle(seed, size["classes"], size["input_dim"],
                                      size["hash_length"])
    queries = Queries(seed, size["input_dim"])
    checker = Checker(oracle, prototypes, queries)
    probe = np.random.default_rng([seed, 9]).standard_normal(size["input_dim"])
    expected_probe = oracle_logits(oracle, probe[None, :])[0]
    config = ServeConfig(max_batch=MAX_BATCH, cache_capacity=CACHE_CAPACITY)

    def build():
        engine = build_demo_engine(classes=size["classes"], input_dim=size["input_dim"],
                                   hash_length=size["hash_length"], seed=seed)
        server = MicroBatchServer(FlipOneLogit(engine) if fault else engine,
                                  config=config).start()
        if not np.array_equal(server.submit(probe).result(30), expected_probe) and not fault:
            raise RuntimeError("first answer differs from the oracle")
        return engine, server

    setup_s, (engine, server) = median_setup(build, lambda b: b[1].stop(), repeats=7)
    rng = np.random.default_rng([seed, 2])
    phases: List[Any] = []

    def next_index() -> int:
        return sum(p.sent_count for p in phases)

    capacities: List[float] = []
    layer: Dict[str, float] = {}
    ledger_table: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    log = SpanLog()
    phases.append(open_loop(server, queries, 0, size["high"], 0.1 * seconds,
                            rng, "warmup").settle(checker))
    if not trace:
        phases.append(open_loop(server, queries, next_index(), size["low"],
                                0.15 * seconds, rng, "low").settle(checker))
        phases.append(open_loop(server, queries, next_index(), size["high"],
                                0.1 * seconds, rng, "high").settle(checker))
        phases.append(Bursts(server, queries, next_index(), size["burst"],
                             0.3 * seconds, checker))
        busy = 0.0
        while busy < 0.25 * seconds or len(capacities) < 3:
            phase, rate, elapsed = drain(server, queries, next_index(),
                                         size["backlog"], checker)
            phases.append(phase)
            capacities.append(rate)
            busy += elapsed
        server.stop()
    else:
        # Untraced then traced bursts in one process, both through the timing
        # proxies: the traced half feeds the ledger, the pair gives the
        # tracing overhead alone.
        server.stop()
        served = instrument_engine(engine, log)
        server = MicroBatchServer(FlipOneLogit(served) if fault else served,
                                  config=config, cache=server.cache).start()
        phases.append(Bursts(server, queries, next_index(), size["burst"],
                             0.4 * seconds, checker))
        server.stop()
        del log.spans[:]  # the ledger reads the traced half only
        exporter = InMemoryExporter()
        tracer = Tracer(exporters=[exporter], capacity=1 << 20)
        # The traced server takes over the warm, full cache: every insert evicts.
        server = MicroBatchServer(FlipOneLogit(served) if fault else served,
                                  config=config, cache=server.cache,
                                  tracer=tracer).start()
        before = server.cache.stats()
        phases.append(Bursts(server, queries, next_index(), size["burst"],
                             0.4 * seconds, checker))
        server.stop()
        after = server.cache.stats()
        tracer.shutdown()
        spans = exporter.spans()
        layer, ledger_table = layers(ServeLedger(spans, log), phases[-1], phases[-2],
                                     before, after, size)
        layer["obs.spans_per_request"] = len(spans) / max(1, phases[-1].sent_count)

    rss = peak_rss_mb()
    attempted = next_index()
    failed = attempted - checker.checked + checker.mismatched
    stats = engine.stats()
    energy_uj = stats["cam_search_energy_pj"] / max(1, stats["queries_served"]) / 1e6
    by_name = {p.name: p for p in phases}  # the last burst phase is the traced one
    burst = windowed_latency(by_name["burst"].began, by_name["burst"].call_ms, WINDOW_S)
    capacity = float(np.median(capacities)) if capacities else 0.0
    named: Dict[str, tuple] = {
        "setup_s": (setup_s, "s"),
        "error_frac": (failed / attempted, "ratio", attempted),
        "peak_rss_mb": (rss, "MB"),
        "top1_agreement": (checker.agreeing / max(1, checker.checked), "ratio",
                           checker.checked),
        "sim_energy_uj": (energy_uj, "uJ"),
        "burst_p50_ms": (burst["p50"], "ms", burst["n"]),
        "burst_p90_ms": (burst["p90"], "ms", burst["n"]),
        "burst_p99_ms": (burst["p99"], "ms", burst["n"]),
    }
    for name in ("low", "high"):
        if name in by_name:
            lat = by_name[name].windowed()
            for q in ("p50", "p90", "p99"):
                named[f"{q}_ms.{name}"] = (lat[q], "ms", lat["n"])
    if capacities:
        named["capacity_rps"] = (capacity, "req/s", len(capacities))
    drains = [p for p in phases if p.name == "capacity"]
    report: Dict[str, Any] = {
        "phases": {p.name: p.summary() for p in phases
                   if isinstance(p, Phase) and p.name != "capacity"},
        "bursts": {"calls": burst["n"], "size": size["burst"],
                   "failed": sum(p.failed for p in phases if isinstance(p, Bursts))},
        "capacity": {"drains": len(drains), "backlog_each": size["backlog"],
                     "rps_each": capacities,
                     "sent": sum(p.sent_count for p in drains),
                     "failed": sum(p.sent_count - len(p.ok) for p in drains),
                     "queue_depth_end_each": [p.queue_depth_end for p in drains]},
        "oracle_mismatches": checker.mismatched,
    }
    if trace:
        report["ledger"] = ledger_table
    e2e = {"setup_s": setup_s, "p50_ms": burst["p50"], "p90_ms": burst["p90"],
           "throughput_per_s": capacity, "peak_rss_mb": rss, "sim_energy_uj": energy_uj}
    return {"attempted": attempted, "failed": failed,
            "e2e": e2e, "layer": layer, "named_metrics": named, "report": report,
            "cache": {"capacity": CACHE_CAPACITY, "admission": 1},
            "spans": log.to_dicts() + spans}


def layers(ledger: ServeLedger, traced: Bursts, untraced: Bursts,
           before, after, size: Dict[str, Any]) -> tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of the traced bursts, and the ledger of their p50."""
    requests = ledger.requests()
    # Request spans in start order line up with the one caller's submissions:
    # call ``i`` is requests ``[i * n, (i + 1) * n)``.
    n = size["burst"]
    calls = [requests[i:i + n] for i in range(0, len(requests) - n + 1, n)]
    calls = calls[:len(traced.call_ms)]
    charges: Dict[str, List[float]] = {
        part: [] for part in ("queue_wait", "reply", *BATCH_PARTS)}
    for rows in calls:
        for part, value in charge_call(rows).items():
            charges[part].append(value)
    latencies = traced.call_ms[:len(calls)]
    closed, table = closure(latencies, charges)
    return {
        **ledger.layer_metrics(charges["queue_wait"], before, after,
                               size["classes"], size["hash_length"]),
        "obs.overhead_pct": 100.0 * (pct(latencies, 50) / pct(untraced.call_ms, 50) - 1.0),
        **closed,
    }, table
