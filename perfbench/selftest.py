#!/usr/bin/env python3
"""Self-test of the contract benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, at a tiny input size and one second of measurement:

* the untraced and the traced runs exit 0 with ``correct: true`` and print
  exactly the end-to-end / per-layer metrics ``BENCHMARK.json`` declares,
  with their units; end-to-end values are finite and positive;
* the report line carries the workload's own named metrics with units;
* the per-layer metrics of the layers a workload exercises are positive,
  so a timing proxy that stops firing shows;
* with ``--inject-fault`` (one served logit flipped) the run reports
  ``failed > 0``, a positive ``error_frac`` and exits non-zero.

A ``loopback-zipf`` client fed malformed answers counts them as wrong,
and one whose thread ends early is reported.

Finally the benchmark must refuse to run -- non-zero exit, no result line
-- in a directory holding only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The named metrics each workload's report line must carry.
NAMED = {
    "inproc-open": {"setup_s": "s", "error_frac": "ratio", "peak_rss_mb": "MB",
                    "p50_ms.low": "ms", "p90_ms.low": "ms", "p50_ms.high": "ms",
                    "p90_ms.high": "ms", "capacity_rps": "req/s"},
    "loopback-zipf": {"setup_s": "s", "error_frac": "ratio", "peak_rss_mb": "MB",
                      "p50_ms": "ms", "p90_ms": "ms", "calls_per_s": "calls/s"},
    "sim-vgg11": {"setup_s": "s", "error_frac": "ratio", "peak_rss_mb": "MB",
                  "images_per_s": "img/s", "sim_cycles": "cycles",
                  "sim_energy_uj": "uJ", "top1_agreement": "ratio"},
}

_SERVE = ("serve.queue_wait_ms.p50", "serve.batch_size.mean", "serve.batches",
          "serve.reply_ms.p50", "cache.lookup_ms.p50", "cache.write_ms.p50",
          "hash.ms_per_batch.p50", "hash.rows", "hash.key_build_ms.p50",
          "search.ms_per_batch.p50", "search.queries", "search.bytes_moved",
          "digitise.ms_per_batch.p50", "obs.spans_per_request")
#: The per-layer metrics each workload's traced tiny run must read above 0.
POSITIVE = {
    "inproc-open": _SERVE,
    "loopback-zipf": _SERVE + (
        "cache.hit_ratio", "shard.fanout_ms.p50", "shard.search_ms.p50",
        "shard.gather_ms.p50", "shard.fanouts", "topk.ms_per_batch.p50",
        "topk.gathered_values", "net.call_ms.p50", "net.transport_ms.p50",
        "net.server_ms.p50", "net.wire_ms.p50", "net.codec_ms.p50"),
    "sim-vgg11": ("sim.weight_hash_ms",) + tuple(
        f"sim.layer{i}.{part}" for i in range(9)
        for part in ("hash_ms", "search_ms", "digitise_ms", "hash_length",
                     "cam_searches", "sim_cycles", "sim_energy_uj")),
}


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_client(failures: list) -> None:
    """``loopback-zipf``'s client against a stub ``NetClient``."""
    import time
    from contextlib import nullcontext
    from types import SimpleNamespace

    import numpy as np

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from loopback_zipf import Client

    class Malformed:
        """Answers of the wrong shape: 3 logits, a top-k that does not unpack."""

        def infer_many(self, queries):
            return np.zeros((len(queries), 3))

        def topk_many(self, queries, k):
            return (np.zeros((len(queries), k), dtype=np.int64),)

    pool = np.zeros((4, 2))
    expected = SimpleNamespace(logits=np.zeros((4, 5)), exact_argmax=np.zeros(4, int),
                               topk=(np.zeros((4, 16), int), np.zeros((4, 16), int)))
    weights = np.full(4, 0.25)

    def plain(_record):
        return nullcontext()

    client = Client(Malformed(), np.random.default_rng(0), np.arange(4), weights)
    client.loop(pool, expected, time.perf_counter() + 0.05, plain)
    kinds = {call["kind"] for call in client.calls}
    check(client.rows > 0 and client.mismatched == client.rows
          and kinds == {"classify", "topk"} and not client.crashed,
          f"malformed answers count as wrong ({client.mismatched}/{client.rows} rows)",
          failures)
    broken = Client(Malformed(), np.random.default_rng(0), np.arange(4), weights * 2)
    broken.loop(pool, expected, time.perf_counter() + 0.05, plain)
    check(bool(broken.crashed), f"a client thread that ends early is reported "
          f"({broken.crashed[:40]})", failures)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures: list = []
    for workload in NAMED:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "tiny"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, lines, err = bench(base + ["--trace", trace])
            tag = f"{workload} trace={trace}"
            if code != 0 or len(lines) < 2:
                check(False, f"{tag}: exit {code}\n{err[-1500:]}", failures)
                continue
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: result keys and verdict", failures)
            metrics = result["metrics"]
            check(list(metrics) == [m["name"] for m in declared]
                  and all(metrics[m["name"]]["unit"] == m["unit"] for m in declared),
                  f"{tag}: every declared metric with its unit", failures)
            values = [entry["value"] for entry in metrics.values()]
            check(all(math.isfinite(v) for v in values), f"{tag}: finite values", failures)
            if trace == "0":
                check(all(v > 0 for v in values), f"{tag}: end-to-end values positive",
                      failures)
                named = report["metrics"]
                check(all(name in named and named[name]["unit"] == unit
                          for name, unit in NAMED[workload].items()),
                      f"{tag}: named metrics {sorted(NAMED[workload])}", failures)
            else:
                check("ledger" in report["diagnostics"], f"{tag}: ledger table", failures)
                idle = sorted(name for name in POSITIVE[workload]
                              if not metrics[name]["value"] > 0)
                check(not idle, f"{tag}: exercised layers positive {idle or ''}",
                      failures)
        code, lines, _ = bench(base + ["--trace", "0", "--inject-fault"])
        result = json.loads(lines[-1]) if lines else {}
        report = json.loads(lines[-2])["report"] if len(lines) >= 2 else {}
        check(code != 0 and result.get("failed", 0) > 0 and not result.get("correct", True)
              and report.get("metrics", {}).get("error_frac", {}).get("value", 0) > 0,
              f"{workload}: flipped logit -> error_frac > 0 and exit {code}", failures)

    check_client(failures)
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench(["--workload", "inproc-open", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare)
    check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
          f"without the program sources: exit {code}, no result", failures)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
