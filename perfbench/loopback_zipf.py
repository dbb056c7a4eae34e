"""``loopback-zipf``: closed-loop ``NetClient``s against a sharded cluster.

Two client threads, each with its own keep-alive ``NetClient``, call a
``NetServer`` over loopback HTTP.  The server fronts a 4-shard x
2-replica ``ShardedEngine`` (thread executor) behind the default result
cache.  Queries are drawn Zipf(1.1) from a fixed pool, so after warm-up
nearly every request is a cache hit; calls rotate through classify
batch-1, classify batch-16 and top-k (k=16) batch-16.  The wire, shard
fan-out/gather, top-k partial gather and the cache dominate; batches are
small, so the batcher and the hash GEMM do little.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List

import numpy as np

from harness import (FlipOneLogit, SpanLog, TimedTransport, instrument_engine,
                     latency_summary, median_setup, pct, peak_rss_mb, windowed_latency,
                     windows)
from inproc_open import build_oracle
from ledger import BATCH_PARTS, ServeLedger, charge_call, closure

SIZES = {
    "full": dict(classes=16384, input_dim=128, hash_length=256, shards=4,
                 replicas=2, pool=512),
    "tiny": dict(classes=256, input_dim=32, hash_length=256, shards=2,
                 replicas=2, pool=256),
}
CLIENTS = 2
BATCH = 16
K = 16
ZIPF_S = 1.1
CACHE_CAPACITY = 4096  # the ServeConfig default, stated explicitly
#: The call mix, rotated per client: (kind, batch size).
MIX = (("classify", 1), ("classify", BATCH), ("topk", BATCH))
#: Gated latency and call rate are medians over windows of this many
#: seconds (about 120 calls each), so a host stall in part of a run does
#: not move them.
WINDOW_S = 2.0


class Expected:
    """Oracle answers for the whole query pool, from an unsharded engine."""

    def __init__(self, seed: int, size: Dict[str, Any], pool: np.ndarray) -> None:
        from repro.cam.topk import decode_topk_rows
        oracle, prototypes = build_oracle(seed, size["classes"], size["input_dim"],
                                          size["hash_length"])
        prepared = oracle.prepare(pool)
        self.logits = oracle.execute(prepared)
        self.topk = decode_topk_rows(oracle.execute_topk(prepared, K))
        self.exact_argmax = np.argmax(pool @ prototypes.T, axis=1)


class Client:
    """One closed-loop caller: its own ``NetClient`` and seeded call plan."""

    def __init__(self, net_client, rng: np.random.Generator,
                 ranks: np.ndarray, weights: np.ndarray) -> None:
        self.net = net_client
        self.rng, self.ranks, self.weights = rng, ranks, weights
        self.calls: List[Dict[str, Any]] = []
        self.mismatched = self.rows = self.agreeing = self.classified = 0
        self.failed_rows = 0
        self.crashed = ""

    def loop(self, pool: np.ndarray, expected: Expected, deadline: float,
             wrap_call) -> None:
        """Calls until ``deadline``; an error that ends the thread early is
        kept in ``crashed`` and fails the run."""
        try:
            self._calls(pool, expected, deadline, wrap_call)
        except BaseException as exc:  # noqa: BLE001 -- reported, not swallowed
            self.crashed = repr(exc)

    def _calls(self, pool: np.ndarray, expected: Expected, deadline: float,
               wrap_call) -> None:
        turn = 0
        while time.perf_counter() < deadline:
            kind, batch = MIX[turn % len(MIX)]
            turn += 1
            chosen = self.ranks[self.rng.choice(len(self.ranks), size=batch,
                                                p=self.weights)]
            record = {"kind": kind, "batch": batch, "thread": threading.get_ident()}
            started = time.perf_counter()
            try:
                with wrap_call(record):
                    if kind == "classify":
                        answer = self.net.infer_many(pool[chosen])
                    else:
                        answer = self.net.topk_many(pool[chosen], K)
            except Exception:  # noqa: BLE001 -- a failed call fails all its rows
                self.failed_rows += batch
                continue
            ended = time.perf_counter()
            record.update(started=started, ended=ended, ms=(ended - started) * 1e3)
            self.calls.append(record)
            self.rows += batch
            try:
                self._check(kind, chosen, answer, expected)
            except Exception:  # noqa: BLE001 -- a malformed answer is a wrong one
                self.mismatched += batch

    def _check(self, kind: str, chosen: np.ndarray, answer, expected: Expected) -> None:
        """Counts the call's wrong rows; raises, counting nothing, on an
        answer of the wrong shape."""
        if kind == "classify":
            answer = np.asarray(answer)
            if answer.shape != expected.logits[chosen].shape:
                raise ValueError(f"classify answer of shape {answer.shape}")
            good = np.all(answer == expected.logits[chosen], axis=1)
            self.agreeing += int(np.sum(np.argmax(answer, axis=1)
                                        == expected.exact_argmax[chosen]))
            self.classified += len(chosen)
        else:
            indices, distances = (np.asarray(part) for part in answer)
            want_indices, want_distances = (part[chosen] for part in expected.topk)
            if indices.shape != want_indices.shape or distances.shape != want_distances.shape:
                raise ValueError(f"top-k answer of shapes {indices.shape}, {distances.shape}")
            good = (np.all(indices == want_indices, axis=1)
                    & np.all(distances == want_distances, axis=1))
        self.mismatched += int(np.sum(~good))


def _zipf(pool: int, rng: np.random.Generator):
    """Rank-to-query map and Zipf(1.1) weights over the pool."""
    weights = 1.0 / np.arange(1, pool + 1) ** ZIPF_S
    return rng.permutation(pool), weights / weights.sum()


def run(seed: int, seconds: float, trace: bool, size_name: str = "full",
        fault: bool = False) -> Dict[str, Any]:
    from repro.net import HttpTransport, NetClient, NetServer
    from repro.obs import InMemoryExporter, Tracer, use_span
    from repro.serve import ServeConfig
    from repro.shard import build_demo_sharded_engine

    size = SIZES[size_name]
    pool = np.random.default_rng([seed, 1]).standard_normal((size["pool"], size["input_dim"]))
    expected = Expected(seed, size, pool)
    ranks, weights = _zipf(size["pool"], np.random.default_rng([seed, 2]))
    config = ServeConfig(cache_capacity=CACHE_CAPACITY)

    def build_engine():
        return build_demo_sharded_engine(
            classes=size["classes"], input_dim=size["input_dim"],
            hash_length=size["hash_length"], seed=seed, num_shards=size["shards"],
            num_replicas=size["replicas"], executor="threads")

    def start(engine, tracer=None, log=None, cache=None):
        server = NetServer(engine=FlipOneLogit(engine) if fault else engine,
                           config=config, cache=cache, tracer=tracer).start()
        clients = []
        for _ in range(CLIENTS):
            transport = HttpTransport(server.base_url)
            if log is not None:
                transport = TimedTransport(transport, log)
            clients.append(NetClient(transport=transport, tracer=tracer, seed=seed))
        return server, clients

    def stop(server, clients):
        for client in clients:
            client.close()
        server.stop()

    def build():
        engine = build_engine()
        server, clients = start(engine)
        first = clients[0].infer_many(pool[:1])
        if not np.array_equal(first, expected.logits[:1]) and not fault:
            raise RuntimeError("first answer differs from the oracle")
        return engine, server, clients

    def teardown(built):
        stop(built[1], built[2])
        built[0].close()

    setup_s, (engine, server, clients) = median_setup(build, teardown, repeats=9)

    def closed_loop(clients, duration_s, tracer=None):
        runners = [Client(c, np.random.default_rng([seed, 3, i]), ranks, weights)
                   for i, c in enumerate(clients)]

        @contextmanager
        def wrap_call(record):
            if tracer is None:
                yield
                return
            # A benchmark-side root span per call: every program span of the
            # call (client, rpc, request, batch) shares its trace id.
            root = tracer.start_span("bench.call")
            record["trace_id"] = root.trace_id
            record["start_ns"] = time.monotonic_ns()
            try:
                with use_span(root):
                    yield
            finally:
                record["end_ns"] = time.monotonic_ns()
                root.end()

        deadline = time.perf_counter() + duration_s
        threads = [threading.Thread(target=r.loop,
                                    args=(pool, expected, deadline, wrap_call))
                   for r in runners]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return runners

    layer: Dict[str, float] = {}
    log = SpanLog()
    if not trace:
        runners = closed_loop(clients, seconds)
        cache_stats = server.app.server.cache.stats()
        retries = sum(c.transport.stats()["retry"]["retries"] for c in clients)
        stop(server, clients)
    else:
        # Untraced then traced halves, one process, both through the timing
        # proxies and each from an empty cache with the same call plan: the
        # traced half feeds the ledger, the pair gives the tracing overhead.
        stop(server, clients)
        served = instrument_engine(engine, log)
        server, clients = start(served, log=log)
        untraced = closed_loop(clients, 0.45 * seconds)
        stop(server, clients)
        del log.spans[:]  # the ledger reads the traced half only
        exporter = InMemoryExporter()
        tracer = Tracer(exporters=[exporter], capacity=1 << 20)
        server, clients = start(served, tracer, log)
        before = server.app.server.cache.stats()
        runners = closed_loop(clients, 0.45 * seconds, tracer)
        cache_stats = server.app.server.cache.stats()
        retries = sum(c.transport.stats()["retry"]["retries"] for c in clients)
        stop(server, clients)
        tracer.shutdown()
        program_spans = exporter.spans()
        layer, ledger_table = layers(ServeLedger(program_spans, log), runners,
                                     untraced, before, cache_stats, size, retries)
    stats = engine.stats()
    engine.close()

    rss = peak_rss_mb()
    # Counted in requests (rows): a batch-16 call is 16 requests.
    checked = runners + (untraced if trace else [])
    # A client thread that ended early counts as one more failed request.
    crashed = [r.crashed for r in checked if r.crashed]
    attempted = sum(r.rows + r.failed_rows for r in checked) + len(crashed)
    failed = sum(r.failed_rows + r.mismatched for r in checked) + len(crashed)
    calls = [call for r in runners for call in r.calls]
    latency = windowed_latency([c["started"] for c in calls], [c["ms"] for c in calls],
                               WINDOW_S)
    completed = windows([c["ended"] for c in calls], [1.0] * len(calls), WINDOW_S)
    calls_per_s = float(np.median([len(w) / WINDOW_S for w in completed])) if calls else 0.0
    classified = sum(r.classified for r in checked)
    agreement = sum(r.agreeing for r in checked) / max(1, classified)
    energy_uj = stats["cam_search_energy_pj"] / max(1, stats["queries_served"]) / 1e6
    named: Dict[str, tuple] = {
        "setup_s": (setup_s, "s"),
        "error_frac": (failed / max(1, attempted), "ratio", attempted),
        "peak_rss_mb": (rss, "MB"),
        "p50_ms": (latency["p50"], "ms", latency["n"]),
        "p90_ms": (latency["p90"], "ms", latency["n"]),
        "p99_ms": (latency["p99"], "ms", latency["n"]),
        "calls_per_s": (calls_per_s, "calls/s", len(completed)),
        "top1_agreement": (agreement, "ratio", classified),
        "sim_energy_uj": (energy_uj, "uJ"),
    }
    by_kind = {}
    for kind, batch in MIX:
        subset = [c["ms"] for c in calls if c["kind"] == kind and c["batch"] == batch]
        by_kind[f"{kind}-{batch}"] = latency_summary(subset)
    report = {
        "calls": len(calls), "failed_rows": sum(r.failed_rows for r in checked),
        "oracle_mismatched_rows": sum(r.mismatched for r in checked),
        "rows_checked": sum(r.rows for r in checked),
        "crashed_clients": crashed,
        "latency_ms_by_call": by_kind,
        "cache": cache_stats.to_dict(), "retries": retries,
    }
    if trace:
        report["ledger"] = ledger_table
    e2e = {"setup_s": setup_s, "p50_ms": latency["p50"], "p90_ms": latency["p90"],
           "throughput_per_s": calls_per_s, "peak_rss_mb": rss, "sim_energy_uj": energy_uj}
    return {"attempted": attempted, "failed": failed, "e2e": e2e, "layer": layer,
            "named_metrics": named, "report": report,
            "cache": {"capacity": CACHE_CAPACITY, "admission": 1},
            "spans": log.to_dicts() + (program_spans if trace else [])}


def layers(ledger: ServeLedger, runners, untraced, before, after,
           size: Dict[str, Any], retries: int) -> tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of the traced half, charged per call, and the closure."""
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for row in ledger.requests():
        by_trace.setdefault(row["span"]["trace_id"], []).append(row)
    rpc = {s["trace_id"]: s for name in ("rpc.classify", "rpc.topk")
           for s in ledger.named[name]}
    transports = ledger.log.named("transport")
    charges: Dict[str, List[float]] = {name: [] for name in (
        "codec", "wire", "queue_wait", "reply", *BATCH_PARTS)}
    call_ms, transport_ms, server_ms = [], [], []
    for call in (c for r in runners for c in r.calls):
        span = rpc.get(call["trace_id"])
        rows = by_trace.get(call["trace_id"], [])
        sent = sum(e - s for _, s, e, thread, _ in transports
                   if thread == call["thread"] and s >= call["start_ns"]
                   and e <= call["end_ns"]) / 1e6
        if span is None or not rows:
            continue
        served = (span["end_ns"] - span["start_ns"]) / 1e6
        call_ms.append(call["ms"])
        transport_ms.append(sent)
        server_ms.append(served)
        charges["codec"].append(call["ms"] - sent)
        charges["wire"].append(sent - served)
        for part, value in charge_call(rows).items():
            charges[part].append(value)
    e2e_p50 = pct(call_ms, 50)
    closed, table = closure(call_ms, charges)
    untraced_ms = [c["ms"] for r in untraced for c in r.calls]
    spans = sum(len(v) for name, v in ledger.named.items() if name != "bench.call")
    return {
        **ledger.layer_metrics(charges["queue_wait"], before, after,
                               size["classes"], size["hash_length"]),
        "net.call_ms.p50": e2e_p50,
        "net.transport_ms.p50": pct(transport_ms, 50),
        "net.server_ms.p50": pct(server_ms, 50),
        "net.wire_ms.p50": pct(charges["wire"], 50),
        "net.codec_ms.p50": pct(charges["codec"], 50),
        "net.retries": float(retries),
        "obs.spans_per_request": spans / max(1, len(call_ms)),
        "obs.overhead_pct": 100.0 * (e2e_p50 / pct(untraced_ms, 50) - 1.0),
        **closed,
    }, table
