"""Scatter-gather search over a row-sharded CAM cluster.

:class:`ShardedCamPipeline` presents the batch-search surface of a single
:class:`~repro.cam.array.CamArray` (``write_rows`` / ``search_batch`` /
``search_batch_packed`` plus the accounting properties) while storing the
rows across ``num_shards`` smaller arrays, each optionally provisioned with
``num_replicas`` identical copies:

1. **scatter** -- writes are split by the :class:`~repro.shard.plan.ShardPlan`
   into per-shard row blocks and mirrored to every replica of each shard;
2. **fan-out** -- a search picks one replica per shard through the
   :class:`~repro.shard.router.ShardRouter` and runs the packed XOR+popcount
   on all shards (inline, or on the worker pool when ``num_workers > 1``);
3. **gather** -- per-shard *raw mismatch counts*
   (:meth:`~repro.cam.array.CamArray.mismatch_counts_packed`) are merged
   back into the global ``(batch, total_rows)`` count matrix, and one
   pipeline-level sense amplifier digitises the populated columns in global
   row order.

Digitising *after* the gather is what makes sharded results bit-identical
to a single array holding all rows: the sense amplifier sees exactly the
flat count stream the unsharded search would produce, so even a noisy
amplifier (seeded identically) reports identical distances.  Energy is the
sum over the selected per-shard searches -- shard occupancies sum to the
total occupancy, so the total matches the single-array search energy --
and latency is the maximum over the (parallel) shards.

Every search runs that contract through one body.  One snapshot helper
(``_fanout``) takes the structure under the state lock, picks the replicas
and pins the published storage; one count producer (``_counts``) returns
the gathered ``(batch, total_rows)`` raw counts with their energy and
latency.  The count producer is the only place the fan-out mode matters:

* ``"fused"`` (default) -- the simulation observes that the shards search
  *in parallel in O(1)* on real hardware, so simulating them as N separate
  little kernels is pure overhead: the pipeline keeps a fused packed
  storage matrix (all shards' rows, already in global row order) and runs
  one vectorised XOR+popcount over it, while energy/latency are accounted
  per selected shard replica analytically.  This is the same move the
  single :class:`CamArray` already makes (one kernel for all rows instead
  of per-cell circuits), applied one level up -- counts are bit-identical
  to the per-port path because XOR+popcount is row-wise.
* ``"ports"`` under the process engine -- workers run the per-shard
  kernels against the *published global storage* sliced by each shard's
  rows (identical words to the port arrays, so counts are bit-identical)
  while energy/latency accrue parent-side through the ports' analytic
  surface (``account_packed_search``).
* ``"ports"`` otherwise -- hardware-faithful per-port execution: each
  selected replica's array runs its own kernel and the results are
  gathered by the plan.  Custom ports (e.g.
  :class:`~repro.cam.dynamic.DynamicCam`) always use this path, and it is
  the only one a :class:`~repro.net.remote.RemoteCamCluster` can run.

Per-port execution goes through one runner (``_per_port``): it times each
shard, emits its ``shard_search_completed`` event and reaches the port
through a single seam, ``_call_port(shard, ports, locks, replica, op)``.
The remote cluster installs its failover loop there.  Clean top-k on
per-port execution is the one caller that ships candidate sets instead
of counts (``_port_topk``: each port's local top-k, then one merge), which
keeps a remote partial gather off the wire; on fused or shared storage it
selects once over the gathered counts.

Both modes fan out on the :mod:`repro.exec` execution plane.  The
``executor`` argument (or ``REPRO_EXECUTOR``) picks the engine: ``inline``
runs everything serially, ``threads`` fans shard searches out on a thread
pool sized by the worker budget (the pre-plane behaviour), and
``processes`` reads the cluster's packed storage zero-copy from a
SharedMemory segment in worker processes -- true parallelism on
multi-core hosts where the GIL-bound thread pool stalls.  Ports without
the analytic surface degrade to in-process execution under the process
engine, never to an error.

``add_shard()`` / ``rebalance()`` rebuild the plan and the port matrix
online from the pipeline's own copy of the stored rows; results before and
after are identical because the global row order never changes.  The
packed storage itself is untouched by a rebalance, so the published
segment (and the worker pool reading it) survives; only ``write_rows``
re-publishes, copy-on-write, with in-flight searches pinning the retired
segment via its refcount until they finish.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple, Union)

import numpy as np

from repro.obs import current_span as _obs_current_span
from repro.obs import default_registry as _default_metrics_registry
from repro.obs import scoped_task as _obs_scoped_task

from repro.bitops import EXECUTOR_ENV, pack_bits, packed_hamming_matrix, words_for_bits
from repro.exec import (
    Executor,
    StorageHandle,
    resolve_executor,
    resolve_executor_name,
    split_rows,
)
from repro.cam.array import CamArray
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.cam.topk import (
    GATHER_CYCLES_PER_VALUE,
    TopKResult,
    empty_topk,
    select_topk,
    validate_k,
)
from repro.serve.metrics import notify_all
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter


def _traced_stage(name: str, **attributes: Any):
    """A pipeline-stage span under the ambient trace, or a no-op.

    The serving worker establishes an ambient ``execute`` span before
    calling into the engine (:mod:`repro.obs`); the pipeline attaches its
    ``fanout``/``gather``/``digitise`` stages under it without any tracer
    parameter threading.  With no ambient span (tracing off) the cost is
    one thread-local read per stage per batch.
    """
    parent = _obs_current_span()
    if parent is None or parent.tracer is None:
        return nullcontext()
    return parent.tracer.span(name, attributes=attributes or None)


def _count_fanout(mode: str, queries: int) -> None:
    """Bump the process-default fan-out counters (one call per batch).

    Goes through :func:`repro.obs.metrics.default_registry` on every call
    (get-or-create is one lock + dict hit, amortised over a whole batch)
    so the ``configure_registry`` test seam keeps working.
    """
    registry = _default_metrics_registry()
    registry.counter(
        "shard_fanouts", "Scatter-gather fan-outs by mode",
        labels={"mode": mode}).inc()
    registry.counter(
        "shard_fanout_queries", "Queries scattered across shards by mode",
        labels={"mode": mode}).inc(queries)

#: A shard port: anything with ``write_rows(bits, start_row)`` and
#: ``mismatch_counts_packed(packed) -> (counts, energy_pj, latency_cycles)``
#: (:class:`~repro.cam.array.CamArray` and
#: :class:`~repro.cam.dynamic.DynamicCam` both qualify).
PortFactory = Callable[[int], Any]

#: Fan-out execution modes (see the module docstring).
FANOUT_MODES = ("fused", "ports")

#: Smallest storage span worth handing to a plane worker in fused mode;
#: below this the fan-out overhead dwarfs the kernel and the search runs
#: as a single span (serial for every engine).
FUSED_SPAN_MIN_ROWS = 256


class _Snapshot(NamedTuple):
    """One search's view of the cluster, taken under the state lock."""

    plan: ShardPlan
    ports: List[List[Any]]
    locks: List[List[threading.Lock]]
    #: The router's replica choice per shard for this fan-out.
    selection: Tuple[int, ...]
    fanout: str
    plane: Optional[Executor]
    #: Ports mode with each replica running its own kernel (not the
    #: process engine's shared-storage counts).
    per_port: bool
    #: The fused/shared kernel operand: the acquired handle, else the array.
    storage: Union[np.ndarray, StorageHandle]
    populated: np.ndarray


def validate_row_block(matrix: np.ndarray, word_bits: int, total_rows: int,
                       start_row: int, holder: str) -> np.ndarray:
    """Shared write-path validation of one ``(rows, word_bits)`` bit block.

    One rule set for every multi-array row holder (the sharded pipeline
    and the time-multiplexed baseline), mirroring what
    :meth:`CamArray.write_rows` enforces, so the cluster can never accept
    rows a single array would reject.  Returns the block as an ndarray.
    """
    data = np.asarray(matrix)
    if data.ndim != 2:
        raise ValueError("bits_matrix must be 2-D")
    if data.shape[0] == 0:
        return data
    if data.shape[1] != word_bits:
        raise ValueError(
            f"expected {word_bits} bits per row, got {data.shape[1]}")
    stop = start_row + data.shape[0]
    if start_row < 0 or stop > total_rows:
        raise ValueError(
            f"cannot store {data.shape[0]} rows starting at {start_row}: "
            f"{holder} has only {total_rows} rows")
    if data.size and not np.all((data == 0) | (data == 1)):
        raise ValueError("bits must be 0/1 values")
    return data


class ShardedCamPipeline:
    """A cluster of CAM shards behind the single-array search surface.

    Parameters
    ----------
    total_rows:
        Global row capacity of the cluster.
    word_bits:
        Word width of every shard (the packed-query width).
    num_shards / policy:
        Initial :class:`ShardPlan` geometry (``"contiguous"`` or
        ``"strided"`` row placement).
    num_replicas / routing:
        Copies per shard and the :class:`ShardRouter` selection policy
        (``"round_robin"`` or ``"least_loaded"``).
    port_factory:
        ``rows -> port`` builder for the shard arrays; defaults to plain
        :class:`CamArray` at ``word_bits``.  The ports' own sense
        amplifiers are bypassed -- digitisation happens once, globally.
    sense_amp:
        The cluster's sense amplifier; ``None`` builds the noise-free
        default at ``word_bits``.  To stay bit-identical to a specific
        single array, construct this one with the same parameters and seed.
    fanout:
        ``"fused"`` (default) runs one vectorised kernel over the fused
        storage; ``"ports"`` executes each selected replica's array
        separately.  Ports without the :class:`CamArray` analytic surface
        (``search_energy_pj`` / ``search_latency_cycles``) fall back to
        ``"ports"`` automatically.
    executor:
        Execution-plane engine for the fan-outs: ``"inline"``,
        ``"threads"``, ``"processes"`` or a ready
        :class:`repro.exec.Executor` instance (whose lifecycle the caller
        then owns).  ``None`` defers to the ``REPRO_EXECUTOR``
        environment variable; when that is unset too, ports mode fans
        out on the default thread engine and fused mode keeps the
        single vectorised kernel -- exactly the pre-plane behaviour.
        The process engine is wrapped in the crash-containment fallback,
        so a killed worker degrades to a bit-identical inline replay.
    num_workers:
        Worker budget of the plane engine (threads or processes).
        ``None``/``0`` mean one worker per CPU; ``1`` keeps every
        fan-out serial, which is optimal on single-core hosts.
    observers:
        :class:`~repro.serve.metrics.ServeObserver`-style listeners; every
        per-shard search emits ``shard_search_completed(shard, replica,
        queries, service_ms)``.
    """

    def __init__(self, total_rows: int, word_bits: int,
                 num_shards: int = 2, policy: str = "contiguous",
                 num_replicas: int = 1, routing: str = "round_robin",
                 port_factory: Optional[PortFactory] = None,
                 sense_amp: Optional[ClockedSelfReferencedSenseAmp] = None,
                 fanout: str = "fused",
                 executor: Optional[Union[str, Executor]] = None,
                 num_workers: Optional[int] = None,
                 observers: Iterable[Any] = ()) -> None:
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if fanout not in FANOUT_MODES:
            raise ValueError(
                f"fanout must be one of {FANOUT_MODES}, got {fanout!r}")
        self.word_bits = int(word_bits)
        self._requested_fanout = fanout
        self.sense_amp = (sense_amp if sense_amp is not None
                          else ClockedSelfReferencedSenseAmp(word_bits=word_bits))
        self._port_factory: PortFactory = (
            port_factory if port_factory is not None
            else (lambda rows: CamArray(rows=rows, word_bits=self.word_bits)))
        self._num_replicas = int(num_replicas)
        self._routing = routing
        self._observers: Tuple[Any, ...] = tuple(observers)
        # The pipeline's own copy of the stored rows is the source of truth
        # rebalance()/add_shard() rebuild the shard arrays from; its packed
        # mirror (global row order) is the fused-mode search operand.
        self._bits = np.zeros((int(total_rows), self.word_bits), dtype=np.uint8)
        self._packed = np.zeros(
            (int(total_rows), int(words_for_bits(self.word_bits))),
            dtype=np.uint64)
        self._populated = np.zeros(int(total_rows), dtype=bool)
        # Accounting accrues from returned values, never from port objects,
        # so retiring ports on a rebalance can never lose history.
        self._accounting_lock = threading.Lock()
        self._search_energy_pj = 0.0
        self._write_energy_pj = 0.0
        self._search_count = 0
        self._batches = 0
        # Structure (plan/ports/router) swaps atomically under this lock;
        # searches snapshot it and run lock-free on the snapshot.
        self._state_lock = threading.Lock()
        self._requested_workers = num_workers
        # Execution plane: the spec is pinned at construction (argument,
        # then REPRO_EXECUTOR); the engine itself is resolved lazily so a
        # pipeline that never fans out never spawns a pool.  spec None
        # means "legacy defaults": ports fan out on the default thread
        # engine, fused keeps the single in-process kernel.
        if executor is None:
            executor = os.environ.get(EXECUTOR_ENV, "").strip() or None
        if isinstance(executor, str):
            executor = resolve_executor_name(executor)
        self._executor_spec: Optional[Union[str, Executor]] = executor
        self._owns_plane = not isinstance(executor, Executor)
        self._plane: Optional[Executor] = (
            executor if isinstance(executor, Executor) else None)
        self._storage_handle: Optional[StorageHandle] = None
        self._install(ShardPlan.build(int(total_rows), num_shards, policy))

    # -- structure ---------------------------------------------------------------

    def _build_ports(self, plan: ShardPlan) -> List[List[Any]]:
        """One port per (shard, replica), loaded with the shard's rows."""
        ports: List[List[Any]] = []
        for spec in plan.shards:
            block = self._bits[spec.global_rows]
            block_populated = self._populated[spec.global_rows]
            replicas = []
            for replica in range(self._num_replicas):
                port = self._new_port(spec, replica)
                self._load_port(port, block, block_populated)
                replicas.append(port)
            ports.append(replicas)
        return ports

    def _new_port(self, spec: Any, replica: int) -> Any:
        """A fresh, empty port for one ``(shard, replica)`` slot."""
        return self._port_factory(spec.rows)

    @staticmethod
    def _load_port(port: Any, block: np.ndarray,
                   block_populated: np.ndarray) -> None:
        """Write the populated runs of one shard block into a fresh port."""
        populated_locals = np.nonzero(block_populated)[0]
        if populated_locals.size == 0:
            return
        # Write maximal contiguous runs so strided plans still use the
        # vectorised bulk write.
        breaks = np.nonzero(np.diff(populated_locals) != 1)[0] + 1
        for run in np.split(populated_locals, breaks):
            port.write_rows(block[run], start_row=int(run[0]))

    def _install(self, plan: ShardPlan) -> None:
        """Build and atomically swap in the structure for ``plan``.

        Build and swap happen under the state lock so a concurrent
        ``write_rows`` (which also holds it) can never interleave with the
        rebuild -- the new ports always reflect every completed write.
        """
        with self._state_lock:
            ports = self._build_ports(plan)
            locks = [[threading.Lock() for _ in range(self._num_replicas)]
                     for _ in plan.shards]
            router = ShardRouter(plan.num_shards, self._num_replicas,
                                 self._routing)
            # Fused mode needs the ports' analytic accounting surface;
            # custom ports without it (DynamicCam) degrade to per-port
            # execution.
            fanout = self._requested_fanout
            if fanout == "fused" and not all(
                    callable(getattr(port, "search_energy_pj", None))
                    and hasattr(port, "search_latency_cycles")
                    for replicas in ports for port in replicas):
                fanout = "ports"
            self.plan = plan
            self._ports = ports
            self._port_locks = locks
            self.router = router
            self.fanout = fanout
            # The shared-storage ports path needs parent-side accounting
            # (the plane computes counts outside the port objects); ports
            # without the surface run in-process instead.
            self._ports_analytic = all(
                callable(getattr(port, "account_packed_search", None))
                for replicas in ports for port in replicas)
            # A rebalance changes only the plan/ports -- the packed
            # storage (and therefore any published segment) is untouched,
            # so the plane and its worker pool survive every _install.

    def _get_plane_locked(self) -> Executor:
        """The execution-plane engine, resolved lazily and kept for life.

        One engine serves every structure the pipeline ever installs --
        a rebalance never closes it (only :meth:`close` does), so worker
        pools survive plan changes and in-flight searches can always
        still fan out on their snapshot.  Sized by the configured worker
        budget, never by shard count.  Callers hold the state lock.
        """
        if self._plane is None:
            self._plane = resolve_executor(
                self._executor_spec, workers=self._requested_workers)
        return self._plane

    def _ensure_handle_locked(self, plane: Executor) -> StorageHandle:
        """The published packed-storage handle, created on first use.

        In-process engines wrap the array for free; the process engine
        copies it once into a SharedMemory segment that its workers then
        read zero-copy on every search.  Callers hold the state lock.
        """
        if self._storage_handle is None:
            self._storage_handle = plane.publish(self._packed)
        return self._storage_handle

    @staticmethod
    def _shard_selector(spec: Any) -> Union[Tuple[int, int], np.ndarray]:
        """A shard's rows as a plane selector: a span when contiguous.

        Spans slice the published storage zero-copy inside workers;
        strided plans fall back to explicit index arrays.
        """
        rows = np.asarray(spec.global_rows, dtype=np.int64)
        if rows.size and (rows.size == 1 or np.all(np.diff(rows) == 1)):
            return (int(rows[0]), int(rows[-1]) + 1)
        return rows

    def _fused_counts(self, packed: np.ndarray,
                      storage: Union[np.ndarray, StorageHandle],
                      plane: Optional[Executor]) -> np.ndarray:
        """The fused kernel, spanned across the plane when one is configured.

        Splitting the *storage* rows (the long axis) into per-worker
        column blocks and concatenating is bit-identical to the single
        kernel call -- every count is an independent ``popcount(XOR)``
        -- and parallelises even small query batches.
        """
        if plane is None:
            return packed_hamming_matrix(packed, storage)
        data = storage.array if isinstance(storage, StorageHandle) else storage
        total = int(data.shape[0])
        spans = split_rows(total, plane.workers,
                           min_rows=min(total, FUSED_SPAN_MIN_ROWS))
        blocks = plane.hamming_fanout(packed, storage, spans)
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate(blocks, axis=1)

    def add_shard(self) -> ShardPlan:
        """Grow the cluster by one shard; results are unchanged."""
        self._install(self.plan.grown())
        return self.plan

    def rebalance(self, num_shards: Optional[int] = None,
                  policy: Optional[str] = None) -> ShardPlan:
        """Re-partition the rows online; results are unchanged.

        Rebuilds every shard array from the pipeline's stored rows under
        the new geometry.  In-flight searches finish on the retired ports
        (their contents are identical), and accounting is unaffected
        because the pipeline accrues it from returned values.
        """
        self._install(self.plan.rebalanced(num_shards=num_shards, policy=policy))
        return self.plan

    def add_observers(self, observers: Iterable[Any]) -> None:
        """Attach more per-shard search listeners (e.g. a server's metrics)."""
        with self._state_lock:
            current = self._observers
            self._observers = (*current,
                               *(observer for observer in observers
                                 if not any(observer is seen
                                            for seen in current)))

    def remove_observers(self, observers: Iterable[Any]) -> None:
        """Detach listeners by identity (a stopping server unbinds its own)."""
        dropped = list(observers)
        with self._state_lock:
            self._observers = tuple(
                observer for observer in self._observers
                if not any(observer is drop for drop in dropped))

    def close(self) -> None:
        """Retire the published storage and shut the plane down (idempotent).

        The SharedMemory segment is unlinked as soon as the last in-flight
        search releases its reference; an engine passed in as an instance
        is left running (its owner closes it).  A later search lazily
        resolves a fresh engine, mirroring the old pool behaviour.
        """
        with self._state_lock:
            handle, self._storage_handle = self._storage_handle, None
            plane = self._plane
            if self._owns_plane:
                self._plane = None
        if handle is not None:
            handle.retire()
        if plane is not None and self._owns_plane:
            plane.close()

    # -- contents ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Global row capacity of the cluster."""
        return int(self._bits.shape[0])

    @property
    def num_shards(self) -> int:
        """Current number of shards."""
        return self.plan.num_shards

    @property
    def num_replicas(self) -> int:
        """Replicas per shard."""
        return self._num_replicas

    @property
    def occupancy(self) -> int:
        """Number of populated global rows."""
        return int(np.count_nonzero(self._populated))

    @property
    def populated_mask(self) -> np.ndarray:
        """Read-only boolean mask of populated global rows."""
        view = self._populated.view()
        view.flags.writeable = False
        return view

    def write_rows(self, bits_matrix: np.ndarray, start_row: int = 0) -> float:
        """Scatter a row block across the shards (and all their replicas).

        Returns the write energy in pJ summed over every replica written --
        each physical copy costs its own write.
        """
        matrix = validate_row_block(bits_matrix, self.word_bits, self.rows,
                                    start_row, "cluster")
        if matrix.shape[0] == 0:
            return 0.0
        stop = start_row + matrix.shape[0]
        # The whole mutation runs under the state lock so it serialises
        # with _install: a rebalance either sees the write completed (and
        # rebuilds the new ports from it) or happens first (and the write
        # lands in the new ports) -- never a torn mix.  The storage arrays
        # are replaced copy-on-write, never mutated in place, so a fused
        # search running on its snapshot always sees one consistent state.
        with self._state_lock:
            ports, locks = self._ports, self._port_locks
            plan = self.plan
            bits = self._bits.copy()
            bits[start_row:stop] = matrix
            packed_storage = self._packed.copy()
            packed_storage[start_row:stop] = pack_bits(
                matrix.astype(np.uint8, copy=False))
            populated = self._populated.copy()
            populated[start_row:stop] = True
            self._bits, self._packed, self._populated = (
                bits, packed_storage, populated)
            # Re-publish the plane storage copy-on-write: searches that
            # acquired the old handle keep reading the retired segment
            # until they release it, then its refcount frees it.
            if self._storage_handle is not None:
                retired = self._storage_handle
                self._storage_handle = self._plane.publish(packed_storage)
                retired.retire()
            energy = 0.0
            for spec in plan.shards:
                mask = (spec.global_rows >= start_row) & (spec.global_rows < stop)
                locals_hit = np.nonzero(mask)[0]
                if locals_hit.size == 0:
                    continue
                block = matrix[spec.global_rows[mask] - start_row]
                breaks = np.nonzero(np.diff(locals_hit) != 1)[0] + 1
                for replica in range(self._num_replicas):
                    with locks[spec.index][replica]:
                        for run in np.split(locals_hit, breaks):
                            offset = int(np.searchsorted(locals_hit, run[0]))
                            energy += ports[spec.index][replica].write_rows(
                                block[offset:offset + run.size],
                                start_row=int(run[0]))
        with self._accounting_lock:
            self._write_energy_pj += energy
        return energy

    # -- search ------------------------------------------------------------------

    def search_batch(self, queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Bit-matrix batch search (validates and packs, then fans out)."""
        query_matrix = np.asarray(queries)
        if query_matrix.ndim != 2:
            raise ValueError("queries must be a 2-D bit matrix")
        if query_matrix.shape[0] == 0:
            return np.full((0, self.rows), -1, dtype=np.int64), 0.0, 0
        if query_matrix.shape[1] != self.word_bits:
            raise ValueError(
                f"queries must have {self.word_bits} bits, "
                f"got {query_matrix.shape[1]}")
        if not np.all((query_matrix == 0) | (query_matrix == 1)):
            raise ValueError("query bits must be 0/1 values")
        return self.search_batch_packed(
            pack_bits(query_matrix.astype(np.uint8, copy=False)))

    def search_batch_packed(self, packed_queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Scatter-gather batch search over already-packed queries.

        Same contract as :meth:`CamArray.search_batch_packed`: returns
        ``(distances, energy_pj, latency_cycles)`` with ``-1`` for
        unpopulated global rows, energy summed over the per-shard searches
        and latency the maximum over the (parallel) shards.
        """
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        num_queries = packed.shape[0]
        if num_queries == 0:
            return np.full((0, self.rows), -1, dtype=np.int64), 0.0, 0
        self._check_words(packed)
        with self._fanout(num_queries) as snap:
            global_counts, energy, latency = self._counts(snap, packed)

        populated = snap.populated
        distances = np.full((num_queries, self.rows), -1, dtype=np.int64)
        if populated.any():
            with _traced_stage("gather", rows=int(self.rows)):
                flat_counts = global_counts[:, populated].reshape(-1)
            # One global digitisation pass in global row order -- the same
            # flat stream a single array would sense, so a (seeded) noisy
            # amplifier consumes its noise identically.  Only a *noisy*
            # amplifier has RNG state to keep race-free; the noise-free
            # default digitises lock-free so concurrent replica searches
            # never serialise on the O(batch x rows) pass.
            noisy = getattr(self.sense_amp, "timing_noise_sigma_ps", 0.0) > 0
            with _traced_stage("digitise", values=int(flat_counts.size)):
                with self._accounting_lock if noisy else nullcontext():
                    sensed = self.sense_amp.estimate_distances(flat_counts)
                distances[:, populated] = sensed.reshape(num_queries, -1)
        self._accrue(energy, num_queries * snap.plan.num_shards)
        return distances, energy, latency

    def topk_packed(self, packed_queries: np.ndarray, k: int) -> TopKResult:
        """Top-k scatter-gather search with a *partial* gather.

        The retrieval counterpart of :meth:`search_batch_packed`: instead of
        gathering every shard's full count column set and digitising all
        rows, each shard contributes only its local ``min(k, occupancy)``
        best candidates (selected on raw mismatch counts with the global
        ``(distance, row id)`` tie-break) and the merge keeps the exact
        global top-k -- ``k x shards`` values cross the result bus per query
        instead of ``total_rows``, which is what
        :attr:`~repro.cam.topk.TopKResult.gathered_values` and the gather
        term of ``latency_cycles`` account.

        Results are bit-identical to
        :meth:`CamArray.topk_packed` on one big array holding all rows
        (indices *and* distances): noise-free digitisation is elementwise
        deterministic, so digitising only the merged survivors matches the
        single array's read-out.  A *noisy* cluster amplifier cannot rank
        rows from raw counts, so it falls back to the full gather -- every
        populated row is digitised once in global row order (consuming the
        noise stream exactly as :meth:`search_batch_packed` and the single
        array do) and the top-k is taken over the sensed distances;
        ``gathered_values`` then honestly reports the full gather.

        Only per-port execution ships candidate sets: each selected replica
        selects its local top-k (:meth:`_port_topk`) and one merge keeps the
        global top-k.  Fused and process-shared storage already yield the
        gathered count matrix, so one selection over its populated columns
        is exact; ``gathered_values`` still reports the per-shard candidate
        traffic (``min(k, shard occupancy)`` values per shard per query)
        the hardware would move.

        Degenerate inputs are shaped no-ops like the search paths: an empty
        ``(0, w)`` batch, ``k = 0`` or an unpopulated cluster returns
        zero-sized results without issuing a search.
        """
        k = validate_k(k)
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        num_queries = packed.shape[0]
        k_eff = min(k, self.occupancy)
        if num_queries == 0 or k_eff == 0:
            return empty_topk(num_queries, k_eff)
        self._check_words(packed)
        noisy = getattr(self.sense_amp, "timing_noise_sigma_ps", 0.0) > 0
        with self._fanout(num_queries, "topk_", k=int(k)) as snap:
            populated = snap.populated
            if snap.per_port and not noisy:
                ids, raws, energies, latencies = zip(*self._per_port(
                    snap, num_queries,
                    lambda spec, port: self._port_topk(port, spec, populated,
                                                       packed, k)))
                with _traced_stage("gather", shards=len(ids)):
                    candidate_ids = np.concatenate(ids, axis=1)
                    indices, raw = select_topk(
                        np.concatenate(raws, axis=1), candidate_ids, k,
                        self.rows)
                gathered_per_query = int(candidate_ids.shape[1])
                energy, latency = float(sum(energies)), max(latencies)
            else:
                counts, energy, latency = self._counts(snap, packed)
                if not noisy:
                    if populated.all():
                        row_ids = np.arange(self.rows, dtype=np.int64)
                        candidates = counts
                    else:
                        row_ids = np.nonzero(populated)[0].astype(np.int64)
                        candidates = counts[:, populated]
                    indices, raw = select_topk(candidates, row_ids, k,
                                               self.rows)
                    gathered_per_query = sum(
                        min(k, int(np.count_nonzero(
                            populated[spec.global_rows])))
                        for spec in snap.plan.shards)
        if noisy:
            # Full gather: digitise every populated row in global row
            # order (the same flat stream search_batch_packed feeds the
            # amplifier), then select over the sensed distances.
            row_ids = np.nonzero(populated)[0].astype(np.int64)
            with _traced_stage("digitise", values=int(
                    num_queries * row_ids.size)):
                with self._accounting_lock:
                    sensed = self.sense_amp.estimate_distances(
                        counts[:, populated].reshape(-1))
                sensed = np.asarray(sensed, dtype=np.int64).reshape(
                    num_queries, -1)
            with _traced_stage("gather", values=int(
                    num_queries * row_ids.size)):
                indices, distances = select_topk(sensed, row_ids, k_eff,
                                                 self.rows)
            gathered_per_query = int(row_ids.size)
        else:
            distances = self._digitise_selected(raw)
        self._accrue(energy, num_queries * snap.plan.num_shards)
        gathered = num_queries * gathered_per_query
        return TopKResult(
            indices=indices,
            distances=distances,
            energy_pj=energy,
            latency_cycles=latency + gathered * GATHER_CYCLES_PER_VALUE,
            gathered_values=gathered,
        )

    def _check_words(self, packed: np.ndarray) -> None:
        """Reject packed queries whose word count differs from the storage."""
        expected_words = self._packed.shape[1]
        if packed.shape[1] != expected_words:
            raise ValueError(
                f"packed queries must have {expected_words} words, "
                f"got {packed.shape[1]}")

    def _accrue(self, energy: float, searches: int) -> None:
        """Charge one batch's search energy and per-shard query searches."""
        with self._accounting_lock:
            self._search_energy_pj += energy
            self._search_count += searches
            self._batches += 1

    def _digitise_selected(self, raw: np.ndarray) -> np.ndarray:
        """Noise-free elementwise read-out of the merged survivors only."""
        with _traced_stage("digitise", values=int(raw.size)):
            return np.asarray(
                self.sense_amp.estimate_distances(raw.reshape(-1)),
                dtype=np.int64).reshape(raw.shape)

    # -- fan-out -------------------------------------------------------------------

    @contextmanager
    def _fanout(self, num_queries: int, label: str = "",
                **attributes: Any) -> Iterator[_Snapshot]:
        """One search's structure snapshot, held open for its fan-out.

        Takes the plan, ports, plane decisions and copy-on-write storage
        under the state lock (searches then run lock-free on the
        snapshot), marks one replica per shard busy in the router, bumps
        the ``label + mode`` fan-out counters and opens the ``fanout``
        span.  On exit -- also on failure -- the router selection and the
        acquired storage handle are released.

        The plane is ``None`` only for fused mode with no configured
        engine (the legacy single in-process kernel).  The storage handle
        is *acquired* whenever the fan-out reads published storage --
        fused mode on a configured engine, or the process engine's shared
        ports path, which computes counts from the published global
        storage with parent-side accounting -- and the acquire is what
        keeps a concurrently retired segment alive until the search ends.
        """
        with self._state_lock:
            plan, ports, locks = self.plan, self._ports, self._port_locks
            router, fanout = self.router, self.fanout
            plane = (None if fanout == "fused" and self._executor_spec is None
                     else self._get_plane_locked())
            shared = (fanout == "ports" and not plane.in_process
                      and self._ports_analytic)
            handle = (self._ensure_handle_locked(plane).acquire()
                      if plane is not None and (fanout == "fused" or shared)
                      else None)
            # Copy-on-write snapshots: write_rows swaps whole arrays, so
            # these stay internally consistent for the rest of the search.
            packed_storage, populated = self._packed, self._populated
        selection = router.begin_search()
        _count_fanout(label + fanout, num_queries)
        try:
            with _traced_stage("fanout", mode=fanout, **attributes,
                               shards=plan.num_shards, queries=num_queries,
                               executor=getattr(plane, "name", "inline")):
                yield _Snapshot(
                    plan=plan, ports=ports, locks=locks, selection=selection,
                    fanout=fanout, plane=plane,
                    per_port=fanout == "ports" and not shared,
                    storage=handle if handle is not None else packed_storage,
                    populated=populated)
        finally:
            router.end_search(selection)
            if handle is not None:
                handle.release()

    def _counts(self, snap: _Snapshot,
                packed: np.ndarray) -> tuple[np.ndarray, float, int]:
        """The gathered ``(batch, rows)`` raw count matrix, energy, latency.

        The one count producer behind every search path; it is the only
        place the fan-out mode is dispatched on:

        * **fused** -- one vectorised kernel over the fused storage, whose
          rows are already in global order, so the kernel's output *is*
          the gathered count matrix.  Energy/latency are accounted per
          selected shard replica analytically.
        * **process-shared** -- workers slice the published global storage
          by each shard's rows -- exactly the words that shard's port
          array holds (unpopulated rows are zero both ways), so the counts
          are bit-identical to the object path -- while energy/latency
          accrue parent-side through the ports' analytic surface, keeping
          every port's own counters consistent with an in-array search.
        * **per-port** -- each selected replica's array runs its own kernel
          (:meth:`_per_port`) and the plan gathers the columns.

        In the first two modes every shard reports the shared pass
        duration in its ``shard_search_completed`` event -- on hardware
        the shards genuinely run concurrently.
        """
        plan, num_queries = snap.plan, packed.shape[0]
        if snap.per_port:
            blocks, energies, latencies = zip(*self._per_port(
                snap, num_queries,
                lambda _spec, port: port.mismatch_counts_packed(packed)))
            energy, latency = float(sum(energies)), max(latencies)
        else:
            fused = snap.fanout == "fused"
            started = time.perf_counter()
            if fused:
                counts = self._fused_counts(packed, snap.storage, snap.plane)
            else:
                blocks = snap.plane.hamming_fanout(
                    packed, snap.storage,
                    [self._shard_selector(spec) for spec in plan.shards])
            elapsed_ms = (time.perf_counter() - started) * 1e3
            energy, latency = 0.0, 0
            for shard, replica in enumerate(snap.selection):
                port = snap.ports[shard][replica]
                if fused:
                    shard_energy = num_queries * port.search_energy_pj()
                    shard_latency = num_queries * port.search_latency_cycles
                else:
                    with snap.locks[shard][replica]:
                        shard_energy, shard_latency = (
                            port.account_packed_search(num_queries))
                energy += shard_energy
                latency = max(latency, shard_latency)
                self._shard_done(shard, replica, num_queries, elapsed_ms)
            if fused:
                return counts, energy, latency
        global_counts = np.empty((num_queries, self.rows), dtype=np.int64)
        plan.gather_columns(blocks, global_counts)
        return global_counts, float(energy), latency

    def _per_port(self, snap: _Snapshot, num_queries: int,
                  op: Callable[[Any, Any], Any]) -> List[Any]:
        """Run ``op(spec, port)`` on every shard's selected replica.

        Hardware-faithful per-port execution, one result per shard in
        shard order.  Each task times its shard, calls the port through
        the :meth:`_call_port` seam and emits the shard's event.  The port
        objects run their own kernels (in-process -- the thread engine
        overlaps them where NumPy releases the GIL; the process engine
        lands here only for ports without the analytic surface and then
        runs them serially, a documented degradation).
        """
        def _one(shard: int) -> Any:
            started = time.perf_counter()
            result, replica = self._call_port(
                shard, snap.ports, snap.locks, snap.selection[shard],
                partial(op, snap.plan.shards[shard]))
            self._shard_done(shard, replica, num_queries,
                             (time.perf_counter() - started) * 1e3)
            return result

        # Pool threads don't inherit this thread's ambient trace scope;
        # scoped_task re-establishes it so the shard_search_completed
        # events the tasks emit still find their fanout parent.
        ambient = _obs_current_span()
        return snap.plane.run_tasks(
            [_obs_scoped_task(partial(_one, shard), ambient)
             for shard in range(snap.plan.num_shards)])

    def _call_port(self, shard: int, ports: List[List[Any]],
                   locks: List[List[threading.Lock]], replica: int,
                   op: Callable[[Any], Any]) -> Tuple[Any, int]:
        """Run ``op(port)`` on one shard's selected replica, under its lock.

        The per-port seam: returns ``(result, replica)``, the replica that
        answered.  :class:`~repro.net.remote.RemoteCamCluster` installs its
        failover loop here, which may answer from another replica.
        """
        with locks[shard][replica]:
            return op(ports[shard][replica]), replica

    def _port_topk(self, port: Any, spec: Any, populated: np.ndarray,
                   packed: np.ndarray, k: int) -> tuple:
        """One port's local top-k ``(global ids, raw counts, energy, latency)``.

        The port runs its own kernel and ships only its local
        ``min(k, occupancy)`` best candidates, selected on raw counts with
        the global ``(distance, row id)`` tie-break -- because every key
        carries its global row id, the merged order is identical to a
        single array's selection.
        """
        counts, energy, latency = port.mismatch_counts_packed(packed)
        local = populated[spec.global_rows]
        indices, raw = select_topk(counts[:, local], spec.global_rows[local],
                                   k, self.rows)
        return indices, raw, energy, latency

    def _shard_done(self, shard: int, replica: int, queries: int,
                    service_ms: float) -> None:
        """Emit one shard's ``shard_search_completed`` to the observers."""
        if self._observers:
            notify_all(self._observers, "shard_search_completed",
                       shard, replica, queries, service_ms)

    # -- accounting ----------------------------------------------------------------

    @property
    def accumulated_search_energy_pj(self) -> float:
        """Total search energy across all shards since construction."""
        with self._accounting_lock:
            return self._search_energy_pj

    @property
    def accumulated_write_energy_pj(self) -> float:
        """Total write energy across all shards and replicas."""
        with self._accounting_lock:
            return self._write_energy_pj

    @property
    def search_count(self) -> int:
        """Per-shard query searches issued (``queries x shards`` per batch)."""
        with self._accounting_lock:
            return self._search_count

    def stats(self) -> Dict[str, Any]:
        """Cluster snapshot: plan, router, plane and accounting counters."""
        with self._state_lock:
            plan, router, fanout = self.plan, self.router, self.fanout
            plane = self._plane
            spec = self._executor_spec
        workers = 0 if plane is None else plane.workers
        if plane is not None:
            executor_name: Optional[str] = plane.name
            executor_stats: Optional[Dict[str, Any]] = plane.stats()
        else:
            executor_name = (spec if isinstance(spec, str)
                             else getattr(spec, "name", None))
            executor_stats = None
        with self._accounting_lock:
            counters = {
                "search_energy_pj": self._search_energy_pj,
                "write_energy_pj": self._write_energy_pj,
                "search_count": self._search_count,
                "batches": self._batches,
            }
        return {
            "total_rows": self.rows,
            "occupancy": self.occupancy,
            "num_shards": plan.num_shards,
            "policy": plan.policy,
            "shard_rows": list(plan.shard_rows),
            "num_replicas": self._num_replicas,
            "fanout": fanout,
            "fanout_workers": workers,
            "executor": executor_name,
            "executor_stats": executor_stats,
            "router": router.stats(),
            **counters,
        }
