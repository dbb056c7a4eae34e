"""Per-layer ledger of a traced serving run.

Joins two span sources on one clock (``time.monotonic_ns``):

* the program's own spans, read through the existing ``tracer=`` argument
  (``request``/``enqueue``/``batch``/``prepare``/``cache_lookup``/
  ``execute``/``cache_write``/``reply``, ``fanout``/``gather`` from the
  shard cluster, ``rpc.*`` from the net plane);
* the benchmark's timing-proxy spans (``prepare``/``hash``/``search``/
  ``topk``/``digitise`` on the serve worker, ``transport`` on clients).

Each proxy span is assigned to the micro-batch whose ``batch`` span
contains it.  A request is charged the whole of its batch's stages,
because it waits for all of them.  A layer's *self* time is its span
minus the part its child spans cover (``key_build`` = ``prepare`` minus
``hash``; ``cam`` = ``search``/``topk`` minus the cluster's ``fanout``
and ``gather``).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, List, Sequence

from harness import SpanLog, covered_ns, mean, pct

#: Closure components charged to a request from its micro-batch.
BATCH_PARTS = ("hash", "key_build", "cache_lookup", "cam", "shard",
               "digitise", "cache_write")


def _ms(start: int, end: int) -> float:
    return (end - start) / 1e6


def _spans_by_name(spans: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)
    return named


class ServeLedger:
    """Batch and request views over one traced serving phase."""

    def __init__(self, program_spans: List[Dict[str, Any]], log: SpanLog) -> None:
        self.named = _spans_by_name(program_spans)
        self.log = log
        batches = sorted(self.named["batch"], key=lambda span: span["start_ns"])
        self.batches = {span["span_id"]: span for span in batches}
        self._starts = [span["start_ns"] for span in batches]
        self._order = [span["span_id"] for span in batches]
        self.batch_parts: Dict[str, Dict[str, float]] = {
            batch_id: defaultdict(float) for batch_id in self.batches}
        for name in ("cache_lookup", "cache_write"):
            for span in self.named[name]:
                parts = self.batch_parts.get(span["parent_id"])
                if parts is not None:
                    parts[name] += _ms(span["start_ns"], span["end_ns"])
        self._assign_proxy_spans()
        # request span id -> its enqueue and reply children
        self.children: Dict[str, Dict[str, Dict[str, Any]]] = defaultdict(dict)
        for name in ("enqueue", "reply"):
            for span in self.named[name]:
                self.children[span["parent_id"]][name] = span

    def _batch_at(self, start: int, end: int):
        index = bisect.bisect_right(self._starts, start) - 1
        if index < 0:
            return None
        batch = self.batches[self._order[index]]
        return batch["span_id"] if batch["end_ns"] >= end else None

    def _assign_proxy_spans(self) -> None:
        """Hash/search/topk/digitise proxy spans, and their self times."""
        shard_intervals = [(span["start_ns"], span["end_ns"])
                           for name in ("fanout", "gather")
                           for span in self.named[name]]
        hash_intervals = [(s, e) for _, s, e, _, _ in self.log.named("hash")]
        for name, start, end, _thread, _attrs in self.log.spans:
            if name not in ("prepare", "hash", "search", "topk", "digitise"):
                continue
            batch_id = self._batch_at(start, end)
            if batch_id is None:
                continue
            parts = self.batch_parts[batch_id]
            if name == "prepare":
                parts["key_build"] += (end - start - covered_ns(
                    start, end, hash_intervals)) / 1e6
            elif name in ("search", "topk"):
                shard_ns = covered_ns(start, end, shard_intervals)
                parts["shard"] += shard_ns / 1e6
                parts["cam"] += (end - start - shard_ns) / 1e6
            else:
                parts[name] += _ms(start, end)

    def requests(self) -> List[Dict[str, Any]]:
        """Root ``request`` spans in submission order, with their charges."""
        rows = []
        for span in sorted(self.named["request"], key=lambda s: s["start_ns"]):
            kids = self.children.get(span["span_id"], {})
            enqueue, reply = kids.get("enqueue"), kids.get("reply")
            batch_id = span["attributes"].get("batch.id")
            rows.append({
                "span": span,
                "batch": batch_id,
                "queue_wait": (0.0 if enqueue is None
                               else _ms(enqueue["start_ns"], enqueue["end_ns"])),
                "reply": 0.0 if reply is None else _ms(reply["start_ns"], reply["end_ns"]),
                **{part: self.batch_parts.get(batch_id, {}).get(part, 0.0)
                   for part in BATCH_PARTS},
            })
        return rows

    def per_batch(self, part: str) -> List[float]:
        """One value per micro-batch that had the part."""
        return [parts[part] for parts in self.batch_parts.values() if part in parts]

    def durations(self, name: str) -> List[float]:
        return [_ms(span["start_ns"], span["end_ns"]) for span in self.named[name]]

    def layer_metrics(self, queue_wait: Sequence[float], before, after,
                      rows: int, hash_length: int) -> Dict[str, float]:
        """Per-layer metrics both serving workloads report.

        ``queue_wait`` holds the per-request (or per-call) queue waits;
        ``before``/``after`` are the result cache's stats around the phase;
        ``rows``/``hash_length`` size the CAM for ``search.bytes_moved``.
        """
        log = self.log
        lookups = (after.hits - before.hits) + (after.misses - before.misses)
        words = hash_length // 64
        search = [a for *_, a in log.named("search")]
        batches = [s["attributes"].get("batch.size", 0) for s in self.named["batch"]]
        return {
            "serve.queue_wait_ms.p50": pct(queue_wait, 50),
            "serve.batch_size.mean": mean(batches),
            "serve.batches": float(len(batches)),
            "serve.reply_ms.p50": pct(self.durations("reply"), 50),
            "cache.hit_ratio": (after.hits - before.hits) / lookups if lookups else 0.0,
            "cache.lookup_ms.p50": pct(self.durations("cache_lookup"), 50),
            "cache.write_ms.p50": pct(self.durations("cache_write"), 50),
            "cache.evictions": float(after.evictions - before.evictions),
            "hash.ms_per_batch.p50": pct(log.durations_ms("hash"), 50),
            "hash.rows": float(sum(a["rows"] for *_, a in log.named("hash"))),
            "hash.key_build_ms.p50": pct(self.per_batch("key_build"), 50),
            "search.ms_per_batch.p50": pct(log.durations_ms("search"), 50),
            "search.queries": float(sum(a["queries"] for a in search)),
            # Computed from array sizes: the query words and every stored
            # row's words read once per batch, one count written per pair.
            "search.bytes_moved": float(sum(
                8 * (a["queries"] * words + rows * words + a["queries"] * rows)
                for a in search)),
            "digitise.ms_per_batch.p50": pct(log.durations_ms("digitise"), 50),
            "shard.fanout_ms.p50": pct(self.durations("fanout"), 50),
            "shard.search_ms.p50": pct(self.durations("shard_search"), 50),
            "shard.gather_ms.p50": pct(self.durations("gather"), 50),
            "shard.fanouts": float(len(self.named["fanout"])),
            "topk.ms_per_batch.p50": pct(log.durations_ms("topk"), 50),
            "topk.gathered_values": float(sum(
                a.get("gathered_values", 0) for *_, a in log.named("topk"))),
        }


def charge_call(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """What one call of several requests waited for.

    The call ends when its last request does: it is charged the longest
    queue wait and reply among its requests, plus every stage of each
    distinct micro-batch its requests rode in.
    """
    batches = {row["batch"]: row for row in rows}
    return {"queue_wait": max(row["queue_wait"] for row in rows),
            "reply": max(row["reply"] for row in rows),
            **{part: sum(row[part] for row in batches.values()) for part in BATCH_PARTS}}


def closure(latencies: Sequence[float],
            charges: Dict[str, Sequence[float]]) -> tuple[Dict[str, float], Dict[str, Any]]:
    """Account for the end-to-end p50 with the layers' self times.

    ``charges[name][i]`` is what layer ``name`` cost request ``i``.  The
    layers are averaged over the requests whose latency lies between the
    45th and 55th percentiles, so they add up at the p50 even when the mix
    is multi-modal; ``other`` is the p50 minus their sum.  Returns the
    closure metrics and the ledger table for the report.
    """
    p50 = pct(latencies, 50)
    low, high = pct(latencies, 45), pct(latencies, 55)
    band = [i for i, value in enumerate(latencies) if low <= value <= high]
    parts = {name: mean([values[i] for i in band]) for name, values in charges.items()}
    other = p50 - sum(parts.values())
    share = other / p50 if p50 else 0.0
    return ({"other_ms.p50": other, "other_share": share},
            {"p50_ms": p50, "band_requests": len(band), "self_ms": parts,
             "other_ms": other, "other_share": share})
