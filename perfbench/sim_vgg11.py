"""``sim-vgg11``: the paper's DeepCAM simulator on VGG11.

``DeepCAMSimulator`` runs ``build_vgg11(seed=0)`` on CIFAR10-like images
in batches of 4 with the paper's variable hash lengths (``layer<i>`` gets
``(256, 512, 768, 1024)[i % 4]`` bits, 64 CAM rows).  It is the only
workload that drives im2col context hashing, the packed Hamming kernel on
large matrices and per-layer hash lengths; no serve, net or shard code
runs.  Simulated cycles and energy come from the analytic mapper and
energy model for the same configuration.

The traced run times the simulator's own calls, per NN layer, through
timing proxies installed for its traced half only: the public
``simulator.cosine_unit`` (digitise), ``packed_hamming_matrix`` as
``repro.core.accelerator`` calls it (search) and
``ContextGenerator.activation_contexts_from_patches`` /
``weight_contexts`` (hash).  The traced answers are checked like the
untraced ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List

import numpy as np

from harness import SpanLog, median_setup, pct, peak_rss_mb, windowed_latency, windows
from ledger import closure

HASH_CYCLE = (256, 512, 768, 1024)
CAM_ROWS = 64
BATCH = 4
#: Gated latency and throughput are medians over windows of this many
#: seconds (about 20 batches each), so a host stall in part of a run does
#: not move them.
WINDOW_S = 2.0
#: The run cycles through ``images / batch`` distinct batches, so the
#: second simulator that checks every answer runs each batch only once.
SIZES = {
    "full": dict(width=1.0, batch=BATCH, images=64),
    "tiny": dict(width=0.125, batch=2, images=8),
}


def _layer_lengths(count: int) -> Dict[str, int]:
    return {f"layer{i}": HASH_CYCLE[i % len(HASH_CYCLE)] for i in range(count)}


def _dot_layers(model) -> List[Any]:
    from repro.nn.layers import Conv2d, Linear
    return [m for m in model.layers if isinstance(m, (Conv2d, Linear))]


class FlipSimulator:
    """Fault injection: negates one logit in every simulated batch."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def run(self, model, images):
        logits = np.array(self.inner.run(model, images))
        logits[0, 0] = -logits[0, 0] + 1.0
        return logits


class SimProbe:
    """Per-layer timing proxies on one simulator's calls.

    The hash proxy learns the layer from the generator's ``layer_name``;
    the simulator searches and digitises a layer right after hashing it,
    on the same thread, so those spans carry the same name.  A layer's CAM
    searches are read from the simulator's own ``stats.cam_searches``,
    which it has counted by the time it digitises the layer.
    """

    def __init__(self, simulator, log: SpanLog) -> None:
        self.simulator, self.log = simulator, log
        self.layer = ""
        self.hash_lengths: Dict[str, int] = {}
        self.searches: Dict[str, int] = {}
        self.weight_hash_ms = 0.0
        self._counted = 0

    @contextmanager
    def installed(self):
        from repro.core import accelerator
        from repro.core.context import ContextGenerator

        probe, log = self, self.log
        hash_rows = ContextGenerator.activation_contexts_from_patches
        hash_weights = ContextGenerator.weight_contexts
        search = accelerator.packed_hamming_matrix
        cosine = self.simulator.cosine_unit

        def timed_hash(generator, patches):
            probe.layer = generator.layer_name
            probe.hash_lengths[probe.layer] = generator.hash_length
            with log.span(f"{probe.layer}.hash"):
                contexts = hash_rows(generator, patches)
                contexts.packed_bits  # packed next by the simulator; counted as hashing
                return contexts

        def timed_weights(generator, module):
            started = time.perf_counter()
            try:
                contexts = hash_weights(generator, module)
                contexts.packed_bits  # packed by the simulator's first search
                return contexts
            finally:
                probe.weight_hash_ms += (time.perf_counter() - started) * 1e3

        def timed_search(weights, activations):
            with log.span(f"{probe.layer}.search"):
                return search(weights, activations)

        def timed_cosine(thetas):
            total = probe.simulator.stats.cam_searches  # reset by every run
            if probe.layer == "layer0":
                probe._counted = 0
            probe.searches[probe.layer] = total - probe._counted
            probe._counted = total
            with log.span(f"{probe.layer}.digitise"):
                return cosine(thetas)

        ContextGenerator.activation_contexts_from_patches = timed_hash
        ContextGenerator.weight_contexts = timed_weights
        accelerator.packed_hamming_matrix = timed_search
        self.simulator.cosine_unit = timed_cosine
        try:
            yield self
        finally:
            ContextGenerator.activation_contexts_from_patches = hash_rows
            ContextGenerator.weight_contexts = hash_weights
            accelerator.packed_hamming_matrix = search
            self.simulator.cosine_unit = cosine


def run(seed: int, seconds: float, trace: bool, size_name: str = "full",
        fault: bool = False) -> Dict[str, Any]:
    from repro.api import deepcam
    from repro.core.energy import DeepCAMEnergyModel
    from repro.core.mapping import DeepCAMMapper
    from repro.datasets.synthetic import make_cifar10_like
    from repro.nn.models.vgg import build_vgg11
    from repro.workloads.specs import network_by_name

    size = SIZES[size_name]
    batch = size["batch"]
    images, _labels, _spec = make_cifar10_like(num_samples=size["images"], seed=seed)

    def new_simulator(layers: int):
        return deepcam(rows=CAM_ROWS, hash_lengths=_layer_lengths(layers)).simulator

    def build():
        model = build_vgg11(seed=0, width_multiplier=size["width"])
        model.eval()
        backend = deepcam(rows=CAM_ROWS, hash_lengths=_layer_lengths(len(_dot_layers(model))))
        simulator = backend.simulator
        first = simulator.run(model, images[:batch])  # hashes every weight context
        if not np.all(np.isfinite(first)):
            raise RuntimeError("simulator produced non-finite logits")
        return model, backend, simulator

    setup_s, (model, backend, simulator) = median_setup(build, lambda b: None, repeats=3)
    config = backend.config
    count = len(_dot_layers(model))
    served = FlipSimulator(simulator) if fault else simulator

    def loop(run_batch, duration_s):
        """Batches in order, wrapping around the image set, for duration_s:
        each batch's first image, output, milliseconds and start time."""
        starts, outputs, times, stamps = [], [], [], []
        deadline = time.perf_counter() + duration_s
        while time.perf_counter() < deadline:
            start = len(starts) * batch % len(images)
            began = time.perf_counter()
            outputs.append(run_batch(images[start:start + batch]))
            times.append((time.perf_counter() - began) * 1e3)
            starts.append(start)
            stamps.append(began)
        return starts, outputs, times, stamps

    def rate(stamps, times):
        """Images per second: the median over windows of batch / mean batch time."""
        return float(np.median([batch * 1e3 / np.mean(w)
                                for w in windows(stamps, times, WINDOW_S)]))

    layer: Dict[str, float] = {}
    log = SpanLog()
    if not trace:
        starts, outputs, times, stamps = loop(lambda x: served.run(model, x), seconds)
        images_per_s = rate(stamps, times)
    else:
        # Untraced then traced halves.  The traced half runs a fresh
        # simulator under the probe: its first, unmeasured batch hashes the
        # weights, then the measured batches hash only activations.
        starts, outputs, times, stamps = loop(lambda x: served.run(model, x),
                                              0.45 * seconds)
        traced_sim = new_simulator(count)
        probe = SimProbe(traced_sim, log)
        traced = FlipSimulator(traced_sim) if fault else traced_sim
        with probe.installed():
            warm = traced.run(model, images[:batch])
            del log.spans[:]
            traced_starts, traced_out, traced_times, traced_stamps = loop(
                lambda x: traced.run(model, x), 0.45 * seconds)
        images_per_s = rate(traced_stamps, traced_times)
        traced_starts, traced_out = [0, *traced_starts], [warm, *traced_out]
    rss = peak_rss_mb()

    # -- every batch against a second simulator on the same inputs --------------
    reference = new_simulator(count)
    if trace:
        starts, outputs = starts + traced_starts, outputs + traced_out
    expected = {start: reference.run(model, images[start:start + batch])
                for start in sorted(set(starts))}
    mismatched = sum(int(np.sum(~np.all(out == expected[s], axis=1)))
                     for s, out in zip(starts, outputs))
    checked = len(outputs) * batch
    exact = {start: model.forward(images[start:start + batch]) for start in expected}
    agreeing = sum(int(np.sum(np.argmax(out, axis=1) == np.argmax(exact[s], axis=1)))
                   for s, out in zip(starts, outputs))
    agreement = agreeing / (len(outputs) * batch)  # reported, not gated

    trace_spec = network_by_name("vgg11")
    profile = {spec.name: HASH_CYCLE[i % len(HASH_CYCLE)]
               for i, spec in enumerate(trace_spec.layers)}
    report_cost = backend.estimate(trace_spec, hash_lengths=profile)
    mapped = DeepCAMMapper(config.with_hash_lengths(profile)).map_network(
        trace_spec, hash_lengths=profile)
    energy = DeepCAMEnergyModel(config.with_hash_lengths(profile)
                                ).network_energy_from_mapping(mapped)
    lat = windowed_latency(stamps, times, WINDOW_S)
    named: Dict[str, tuple] = {
        "setup_s": (setup_s, "s"),
        "error_frac": (mismatched / checked, "ratio", checked),
        "peak_rss_mb": (rss, "MB"),
        "images_per_s": (images_per_s, "img/s", len(outputs) * batch),
        "batch_p50_ms": (lat["p50"], "ms", lat["n"]),
        "batch_p90_ms": (lat["p90"], "ms", lat["n"]),
        "sim_cycles": (float(report_cost.total_cycles), "cycles"),
        "sim_energy_uj": (float(report_cost.total_energy_uj), "uJ"),
        "top1_agreement": (agreement, "ratio", len(outputs) * batch),
    }
    if trace:
        layer, ledger_table = layers(probe, log, traced_times, mapped, energy, count)
    e2e = {"setup_s": setup_s, "p50_ms": lat["p50"], "p90_ms": lat["p90"],
           "throughput_per_s": images_per_s, "peak_rss_mb": rss,
           "sim_energy_uj": float(report_cost.total_energy_uj)}
    report = {"batches": len(outputs), "batch": batch, "mismatched_rows": mismatched,
              "rows_checked": checked, "hash_lengths": _layer_lengths(count),
              "cost_profile": profile}
    if trace:
        report["ledger"] = ledger_table
        # No repro.obs code runs here, so obs.* report idle; this is what
        # the timing proxies cost the traced half instead.
        report["probe_overhead_pct"] = 100.0 * (pct(traced_times, 50) / pct(times, 50) - 1.0)
    return {"attempted": checked, "failed": mismatched, "e2e": e2e, "layer": layer,
            "named_metrics": named, "report": report,
            "cache": {"serve_cache": "not used"},
            "spans": log.to_dicts()}


def layers(probe: SimProbe, log: SpanLog, traced_times: List[float], mapped, energy,
           count: int) -> tuple[Dict[str, float], Dict[str, Any]]:
    """Per-NN-layer host times of the traced half, analytic cost per layer,
    closure."""
    out: Dict[str, float] = {"sim.weight_hash_ms": probe.weight_hash_ms}
    charges: Dict[str, List[float]] = {}
    for i in range(count):
        name = f"layer{i}"
        for part in ("hash", "search", "digitise"):
            values = log.durations_ms(f"{name}.{part}")
            charges[f"{name}.{part}"] = values
            out[f"sim.{name}.{part}_ms"] = pct(values, 50)
        out[f"sim.{name}.hash_length"] = float(probe.hash_lengths.get(name, 0))
        out[f"sim.{name}.cam_searches"] = float(probe.searches.get(name, 0))
        out[f"sim.{name}.sim_cycles"] = float(mapped.layers[i].cycles)
        out[f"sim.{name}.sim_energy_uj"] = energy.layers[i].total_pj / 1e6
    closed, table = closure(traced_times, charges)
    out.update(closed)
    return out, table
