#!/usr/bin/env python3
"""Contract benchmark of the DeepCAM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload inproc-open --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``inproc-open``   -- Poisson open loop into an in-process micro-batch server;
* ``loopback-zipf`` -- two closed-loop ``NetClient``s over loopback HTTP to a
  sharded, replicated cluster, Zipf-popular queries, classify + top-k;
* ``sim-vgg11``     -- the paper's DeepCAM simulator on VGG11 with variable
  per-layer hash lengths.

The program is imported from ``src/`` next to this directory; the workload
sees only inputs generated from ``--seed``.  Every answer is checked
against an independent oracle (an unsharded engine, or a second simulator).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs an untraced and a traced half and reports the per-layer ledger.

Output: one JSON ``report`` line (environment stamp, the per-workload
metrics under their own names with sample counts, diagnostics), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
metric names and units ``BENCHMARK.json`` declares.  Spans and the report
are also written to ``.bench_out/``.  Exit status is 1 when any answer
was refused or differs from the oracle.  ``perfbench/selftest.py`` checks
all of this at a tiny input size.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "inproc-open": "inproc_open",
    "loopback-zipf": "loopback_zipf",
    "sim-vgg11": "sim_vgg11",
}

#: Per-layer metric groups a workload never exercises; they report 0 there.
IDLE_GROUPS = {
    "inproc-open": ("net.", "sim."),
    "loopback-zipf": ("sim.",),
    "sim-vgg11": ("serve.", "cache.", "hash.", "search.", "digitise.",
                  "shard.", "topk.", "net.", "obs."),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (self-test only)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one served logit (self-test only)")
    return parser.parse_args(argv)


def select_metrics(declared, values, workload):
    """Exactly the declared metrics, in declared order, with their units."""
    idle = IDLE_GROUPS[workload]
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = float(values[name])
        elif name.startswith(idle):
            value = 0.0
        else:
            raise KeyError(f"workload {workload} produced no metric {name!r}")
        out[name] = {"value": value, "unit": metric["unit"]}
    extra = sorted(set(values) - set(out))
    if extra:
        raise KeyError(f"workload {workload} produced undeclared metrics {extra}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    from harness import environment  # noqa: E402 -- needs the paths above

    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace),
                        size_name=args.size, fault=args.inject_fault)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select_metrics(declared, result["layer" if args.trace else "e2e"],
                             args.workload)
    failed = int(result["failed"])
    report = {
        "workload": args.workload,
        "environment": environment(ROOT, args.seed, bool(args.trace),
                                   result.get("cache", {})),
        "metrics": {name: dict(zip(("value", "unit", "samples"), entry))
                    for name, entry in result["named_metrics"].items()},
        "diagnostics": result["report"],
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".report.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    if args.trace:
        with open(os.path.join(out_dir, stem + ".spans.jsonl"), "w") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(span, default=str) + "\n")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
