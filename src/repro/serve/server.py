"""The dynamic micro-batching inference server.

:class:`MicroBatchServer` turns a stream of single-sample requests into the
large batches the packed CAM pipeline needs to pay off:

1. ``submit()`` validates the sample's shape (when the engine declares its
   ``input_dim``), wraps it in a future and enqueues it on the bounded
   request queue (blocking or rejecting when full);
2. worker threads drain the queue into micro-batches
   (:func:`~repro.serve.batching.drain_batch`: flush on ``max_batch`` or
   ``max_wait_ms``, whichever first);
3. one ``engine.prepare`` pass preprocesses the whole batch (for the CAM
   engine: one batched hashing GEMM whose packed words double as cache
   keys);
4. the packed-signature cache answers repeats bit-identically; only the
   misses reach ``engine.execute`` -- one packed CAM search for the whole
   miss set;
5. futures resolve to read-only logits rows and observers hear about every
   step (queue depth, batch sizes, latencies, cache hits).

A failed batch fails all of its futures with the same exception; the worker
threads keep serving.  ``stop(drain=True)`` (also the context-manager exit)
waits for the queue to empty before joining the workers, mirroring the
drain-on-exit of background batch-ingest queues.
"""

from __future__ import annotations

import inspect
import queue
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cam.topk import validate_k
from repro.obs import TracingObserver, default_tracer, use_span
from repro.serve import blas
from repro.serve.batching import (
    QueueFullError,
    ServeConfig,
    ServeRequest,
    TopKRequest,
    drain_batch,
)
from repro.serve.cache import PackedSignatureCache
from repro.serve.engine import InferenceEngine
from repro.serve.metrics import ServeMetrics, notify_all
from repro.serve.tenancy import (
    QuotaExceededError,
    RateLimitedError,
    TenantQueues,
    TenantRegistry,
    TenantState,
)


class MicroBatchServer:
    """Micro-batching server over one :class:`~repro.serve.engine.InferenceEngine`.

    Parameters
    ----------
    engine:
        The batched compute to serve.
    config:
        Queue/batcher/worker knobs; defaults to :class:`ServeConfig`.
    cache:
        Result cache override.  ``None`` builds a
        :class:`PackedSignatureCache` of ``config.cache_capacity`` entries
        (``0`` capacity disables caching); pass an instance to share one
        across servers, or ``False`` to force caching off.
    observers:
        Extra :class:`~repro.serve.metrics.ServeObserver` instances; the
        built-in :class:`ServeMetrics` is always first.
    tracer:
        A :class:`repro.obs.Tracer` to emit per-request run trees into
        (request/enqueue/batch/prepare/cache/execute/reply spans, plus a
        :class:`~repro.obs.TracingObserver` so shard fan-out events become
        ``shard_search`` spans).  ``None`` (default) falls back to the
        process-default tracer (:func:`repro.obs.configure`); with neither,
        tracing is off and every instrumentation site short-circuits on one
        ``None`` check.
    registry:
        A :class:`repro.obs.MetricsRegistry` for the built-in
        :class:`ServeMetrics` instruments (request/latency/cache series
        with trace exemplars).  ``None`` gives the metrics object its own
        private registry; pass one to share instruments with an SLO
        engine or a metrics endpoint (also reachable as
        ``server.metrics.registry``).
    tenancy:
        A :class:`repro.serve.tenancy.TenantRegistry` turning on
        multi-tenant traffic control: token-bucket admission and queue
        quotas per tenant at submit time, per-tenant queues merged by
        deficit-weighted round-robin instead of the single FIFO,
        per-tenant cache namespaces and labelled metric series.  ``None``
        (default) keeps the untenanted single-queue fast path untouched.
    """

    def __init__(self, engine: InferenceEngine,
                 config: Optional[ServeConfig] = None,
                 cache: "PackedSignatureCache | bool | None" = None,
                 observers: Iterable[Any] = (),
                 tracer: Any = None,
                 registry: Any = None,
                 tenancy: Optional[TenantRegistry] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        if cache is None:
            self.cache: Optional[PackedSignatureCache] = (
                PackedSignatureCache(self.config.cache_capacity,
                                     admission_threshold=self.config.cache_admission)
                if self.config.cache_capacity > 0 else None)
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self.metrics = ServeMetrics(registry=registry)
        self._tracer = tracer if tracer is not None else default_tracer()
        if self._tracer is not None:
            observers = (*observers, TracingObserver(self._tracer))
        self._observers = (self.metrics, *observers)
        self.tenancy = tenancy
        self._queue: "queue.Queue[ServeRequest]" = (
            TenantQueues(self.config.queue_depth, tenancy)
            if tenancy is not None
            else queue.Queue(maxsize=self.config.queue_depth))
        self._workers: List[threading.Thread] = []
        self._stop_event = threading.Event()
        self._state_lock = threading.Lock()
        self._running = False
        self._abort = False
        # Engines declaring input_dim get per-request shape validation at
        # submit time, confining a malformed sample to its own future
        # instead of failing every request co-batched with it.
        self._input_dim = getattr(engine, "input_dim", None)
        try:
            self._prepare_takes_want_keys = (
                "want_keys" in inspect.signature(engine.prepare).parameters)
        except (TypeError, ValueError):
            self._prepare_takes_want_keys = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether workers are accepting and serving requests."""
        return self._running

    def start(self) -> "MicroBatchServer":
        """Spawn the worker threads; returns ``self`` for chaining."""
        with self._state_lock:
            if self._running:
                raise RuntimeError("server is already running")
            self._stop_event.clear()
            self._workers = [
                threading.Thread(target=self._worker_loop, daemon=True,
                                 name=f"repro-serve-{index}")
                for index in range(self.config.num_workers)
            ]
            self._running = True
        # Engines with internal event sources (the sharded cluster's
        # per-shard searches) feed this server's observers while it runs;
        # stop() unbinds them, so short-lived servers over a long-lived
        # engine never accumulate retired metrics objects.
        bind = getattr(self.engine, "bind_observers", None)
        if callable(bind):
            bind(self._observers)
        # Single-threaded BLAS while serving: see repro.serve.blas.
        blas.pin_single_thread()
        for worker in self._workers:
            worker.start()
        notify_all(self._observers, "server_started", self.config)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the workers.

        ``drain=True`` first waits for every enqueued request to be served;
        ``drain=False`` stops after the in-flight batches and fails the
        still-queued requests with :class:`RuntimeError`.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
        if drain:
            self._queue.join()
        else:
            self._abort = True
        self._stop_event.set()
        # One sentinel per worker wakes idle drain polls immediately; a full
        # queue (abort mode) needs none -- workers are already awake.
        for _ in self._workers:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        for worker in self._workers:
            worker.join()
        self._workers = []
        blas.release()
        self._flush_queue(RuntimeError("server stopped before serving"))
        self._abort = False
        unbind = getattr(self.engine, "unbind_observers", None)
        if callable(unbind):
            unbind(self._observers)
        notify_all(self._observers, "server_stopped", self.metrics.snapshot())

    def __enter__(self) -> "MicroBatchServer":
        if not self._running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def _flush_queue(self, error: Exception) -> None:
        """Consume leftover sentinels and fail any still-queued requests."""
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            if request is not None and request.future.set_running_or_notify_cancel():
                request.future.set_exception(error)
                self._end_request_spans(request, error)
            self._queue.task_done()

    @staticmethod
    def _end_request_spans(request: ServeRequest,
                           error: "Exception | None" = None) -> None:
        """Finish a request's open spans (error-marked when given)."""
        for span in (request.enqueue_span, request.span):
            if span is not None and not span.ended:
                if error is not None:
                    span.record_error(error)
                span.end()

    # -- submission --------------------------------------------------------------

    def submit(self, sample: np.ndarray,
               timeout: Optional[float] = None,
               trace: Any = None,
               tenant: Optional[str] = None) -> "Future[np.ndarray]":
        """Enqueue one sample; returns the future of its logits row.

        Backpressure follows ``config.full_policy``: ``"block"`` waits (up
        to ``timeout`` seconds, then raises :class:`QueueFullError`);
        ``"reject"`` raises immediately when the queue is full.  ``trace``
        optionally parents the request's root span under an incoming
        :class:`repro.obs.TraceContext` (the net plane passes the parsed
        ``X-Repro-Trace`` header here).  ``tenant`` attributes the request
        for admission/fair-queueing/metrics on a tenanted server (the net
        plane passes the ``X-Repro-Tenant`` header); over-rate or
        over-quota submissions raise
        :class:`~repro.serve.tenancy.RateLimitedError` /
        :class:`~repro.serve.tenancy.QuotaExceededError` with a
        ``retry_after_s`` hint.
        """
        return self._enqueue(
            ServeRequest(sample=self._validate_sample(sample), tenant=tenant),
            timeout, trace=trace)

    def submit_topk(self, sample: np.ndarray, k: int,
                    timeout: Optional[float] = None,
                    trace: Any = None,
                    tenant: Optional[str] = None) -> "Future[np.ndarray]":
        """Enqueue one top-k retrieval request; returns the future of its row.

        The future resolves to a read-only encoded ``(2 * k_eff,)`` row of
        ``[row ids | distances]`` (split it with
        :func:`repro.cam.topk.decode_topk_rows`).  Top-k and classification
        requests share the queue and micro-batcher; a drained batch is
        grouped by kind, so mixing them costs one extra engine call per
        distinct ``k`` in the batch, never a stall.  Backpressure follows
        ``config.full_policy`` exactly as :meth:`submit`.
        """
        if not callable(getattr(self.engine, "execute_topk", None)):
            raise TypeError(
                f"engine {getattr(self.engine, 'name', '?')!r} does not "
                f"support top-k retrieval (no execute_topk)")
        return self._enqueue(
            TopKRequest(sample=self._validate_sample(sample), k=validate_k(k),
                        tenant=tenant),
            timeout, trace=trace)

    def _validate_sample(self, sample: np.ndarray) -> np.ndarray:
        """Shared submit-time validation of one sample."""
        if not self._running:
            raise RuntimeError("server is not running (call start() first)")
        data = np.asarray(sample, dtype=np.float64)
        if self._input_dim is not None and data.shape != (self._input_dim,):
            raise ValueError(
                f"sample must have shape ({self._input_dim},) for engine "
                f"{getattr(self.engine, 'name', '?')!r}, got {data.shape}"
            )
        return data

    def _enqueue(self, request: ServeRequest,
                 timeout: Optional[float],
                 trace: Any = None) -> "Future[np.ndarray]":
        """Shared enqueue + backpressure tail of the submit paths."""
        if self._tracer is not None:
            k = getattr(request, "k", None)
            request.span = self._tracer.start_span(
                "request", parent=trace,
                attributes={"kind": "classify" if k is None else "topk",
                            **({} if k is None else {"k": int(k)}),
                            **({} if request.tenant is None
                               else {"tenant": request.tenant})})
            request.enqueue_span = self._tracer.start_span(
                "enqueue", parent=request.span)
        if self.tenancy is not None:
            served = self._admit(request)
            if served is not None:
                return served  # answered stale from the cache
        block = self.config.full_policy == "block"
        try:
            self._queue.put(request, block=block, timeout=timeout)
        except queue.Full:
            notify_all(self._observers, "request_rejected", self._queue.qsize())
            error = QueueFullError(
                f"request queue is full (depth {self.config.queue_depth}, "
                f"policy {self.config.full_policy!r})")
            self._end_request_spans(request, error)
            raise error from None
        if not self._running and not self._workers:
            # stop() completed between the running guard and the put; no
            # worker will ever drain this request, so fail it rather than
            # leave the future unresolved.
            self._flush_queue(RuntimeError("server stopped before serving"))
        notify_all(self._observers, "request_enqueued", self._queue.qsize())
        return request.future

    def submit_many(self, samples: Sequence[np.ndarray] | np.ndarray,
                    timeout: Optional[float] = None,
                    tenant: Optional[str] = None) -> List["Future[np.ndarray]"]:
        """Enqueue several samples; returns their futures in order."""
        return [self.submit(sample, timeout=timeout, tenant=tenant)
                for sample in samples]

    # -- admission (tenanted servers) --------------------------------------------

    def _queue_pressure(self) -> float:
        """Queue fill fraction in [0, 1] -- the degradation selector."""
        return min(1.0, self._queue.qsize() / self.config.queue_depth)

    def _reject(self, request: ServeRequest, state: TenantState,
                error: "RateLimitedError | QuotaExceededError",
                reason: str) -> None:
        """Shared tail of every admission rejection: count, trace, raise."""
        notify_all(self._observers, "request_rejected", self._queue.qsize())
        notify_all(self._observers, "tenant_request_rejected",
                   state.name, reason)
        self._end_request_spans(request, error)
        raise error

    def _admit(self, request: ServeRequest) -> "Optional[Future[np.ndarray]]":
        """Token-bucket + quota gates ahead of the shared queue bound.

        Returns ``None`` when the request may proceed to the queue, or an
        already-resolved future when ``"stale"`` degradation answered it
        from the cache.  Raises :class:`RateLimitedError` /
        :class:`QuotaExceededError` (span-ended, counted) otherwise.
        """
        state = self.tenancy.state(request.tenant)
        request.tenant = state.name  # normalise None -> "default"
        if self.cache is not None:
            request.key_suffix = state.key_suffix
        policy = state.policy
        if state.bucket is not None and not state.bucket.try_acquire():
            state.count("rate_limited")
            degrade = policy.degradation
            if degrade == "stale":
                future = self._serve_stale(request, state)
                if future is not None:
                    return future
            if degrade == "shed" \
                    or self._queue_pressure() >= policy.degrade_pressure:
                state.count("shed")
                retry = state.bucket.retry_after()
                self._reject(request, state, RateLimitedError(
                    f"tenant {state.name!r} is over its rate "
                    f"({policy.rate:g}/s, burst {policy.effective_burst:g}); "
                    f"retry in {retry:.3f}s",
                    state.name, retry_after_s=retry), "rate_limited")
            # "queue"/"stale" under low pressure: admit over-rate traffic.
            state.count("degraded_queued")
            notify_all(self._observers, "tenant_request_degraded",
                       state.name, "queue")
        if policy.queue_quota is not None \
                and isinstance(self._queue, TenantQueues) \
                and self._queue.tenant_depth(state.name) >= policy.queue_quota:
            state.count("quota_rejected")
            retry = (state.bucket.retry_after()
                     if state.bucket is not None else 0.0)
            self._reject(request, state, QuotaExceededError(
                f"tenant {state.name!r} has {policy.queue_quota} requests "
                f"queued (its quota)", state.name, retry_after_s=retry),
                "quota")
        state.count("admitted")
        notify_all(self._observers, "tenant_request_admitted", state.name)
        return None

    def _serve_stale(self, request: ServeRequest,
                     state: TenantState) -> "Optional[Future[np.ndarray]]":
        """Answer an over-rate request from the cache, if resident.

        "Stale" is nominal: signature-cache entries never invalidate (the
        logits are a pure function of the key), so a degraded answer is
        still bit-identical to a fresh computation -- the tenant only
        loses freshness of *side effects* it never had.  Returns ``None``
        on a miss (or when the engine exposes no keys), letting the
        pressure decision take over.
        """
        if self.cache is None:
            return None
        sample = request.sample[np.newaxis, :]
        try:
            prepared = (self.engine.prepare(sample, want_keys=True)
                        if self._prepare_takes_want_keys
                        else self.engine.prepare(sample))
        except Exception:  # noqa: BLE001 -- admission must not fail the server
            return None
        keys = getattr(prepared, "keys", None)
        if not keys:
            return None
        key = keys[0]
        k = getattr(request, "k", None)
        if k is not None:
            key += b"topk" + int(k).to_bytes(8, "little")
        key += request.key_suffix
        row = self.cache.get(key)
        if row is None:
            return None
        state.count("stale_served")
        state.count("completed")
        request.future.set_result(row)
        latency_ms = (time.perf_counter() - request.enqueued_at) * 1e3
        if request.span is not None:
            request.span.set_attribute("cache.hit", True)
            request.span.set_attribute("degraded", "stale")
            producer = self.cache.provenance(key)
            if producer is not None:
                request.span.set_attribute("link.trace_id", producer)
            request.enqueue_span.end()
            with use_span(request.span):
                notify_all(self._observers, "request_completed", latency_ms)
                notify_all(self._observers, "tenant_request_degraded",
                           state.name, "stale")
                notify_all(self._observers, "tenant_request_completed",
                           state.name, latency_ms)
            request.span.end()
        else:
            notify_all(self._observers, "request_completed", latency_ms)
            notify_all(self._observers, "tenant_request_degraded",
                       state.name, "stale")
            notify_all(self._observers, "tenant_request_completed",
                       state.name, latency_ms)
        return request.future

    # -- worker ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        poll_s = self.config.poll_timeout_ms / 1e3
        max_wait_s = self.config.max_wait_ms / 1e3
        while True:
            # The adaptive window is re-evaluated inside drain_batch per
            # dequeue (a single qsize() sample up front went stale the
            # moment a burst arrived mid-drain).
            batch = drain_batch(self._queue, self.config.max_batch,
                                max_wait_s, poll_s,
                                adaptive=self.config.adaptive_wait)
            real = [request for request in batch if request is not None]
            for _ in range(len(batch) - len(real)):  # shutdown sentinels
                self._queue.task_done()
            if real:
                if self._abort:
                    error = RuntimeError("server stopped before serving")
                    for request in real:
                        if request.future.set_running_or_notify_cancel():
                            request.future.set_exception(error)
                        # Aborted requests must still close their spans,
                        # or traced roots leak into the tail buffer until
                        # the trace-timeout sweep.
                        self._end_request_spans(request, error)
                        self._queue.task_done()
                else:
                    self._process(real)
            if self._stop_event.is_set() and len(real) < len(batch):
                return  # woken by a sentinel
            if not batch and self._stop_event.is_set():
                return

    def _process(self, batch: List[ServeRequest]) -> None:
        collected_at = time.perf_counter()
        live: List[ServeRequest] = []
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                self._end_request_spans(
                    request, RuntimeError("cancelled before serving"))
                self._queue.task_done()  # cancelled before a worker got to it
        if not live:
            return
        waited_ms = (collected_at - live[0].enqueued_at) * 1e3
        notify_all(self._observers, "batch_collected", len(live), waited_ms,
                   self._queue.qsize())
        # The micro-batch gets one span of its own (a fresh trace -- many
        # requests ride in it); each member request records the batch's id
        # so the run tree can graft the batch subtree back in.  Sampling
        # follows the members: the batch is kept if any rider is kept.
        batch_span = None
        if self._tracer is not None:
            batch_span = self._tracer.start_span(
                "batch",
                sampled=any(request.span is not None and request.span.sampled
                            for request in live),
                attributes={"batch.size": len(live), "waited_ms": waited_ms})
            for request in live:
                if request.span is not None:
                    request.span.set_attribute("batch.id", batch_span.span_id)
                    request.span.set_attribute("batch.size", len(live))
                if request.enqueue_span is not None:
                    request.enqueue_span.end()
        # One coalesced engine call per request kind: classification
        # (k=None) plus one group per distinct top-k size.  A failure fails
        # only its own group; the other kinds in the batch still resolve.
        groups: Dict[Optional[int], List[ServeRequest]] = {}
        for request in live:
            groups.setdefault(getattr(request, "k", None), []).append(request)
        served = 0
        total_hits = 0
        for k, group in groups.items():
            try:
                results, hits = self._answer(group, k, batch_span)
            except Exception as error:  # noqa: BLE001 -- fail the group, keep serving
                for request in group:
                    request.future.set_exception(error)
                    self._end_request_spans(request, error)
                    self._queue.task_done()
                notify_all(self._observers, "batch_failed", len(group), error)
                continue
            done_at = time.perf_counter()
            for request, row in zip(group, results):
                latency_ms = (done_at - request.enqueued_at) * 1e3
                if request.span is not None:
                    reply = self._tracer.start_span("reply",
                                                    parent=request.span)
                    request.future.set_result(row)
                    # Notify under the request's span scope so observers
                    # (ServeMetrics' latency histogram) can stamp the
                    # trace id as the bucket exemplar.
                    with use_span(request.span):
                        notify_all(self._observers, "request_completed",
                                   latency_ms)
                        if request.tenant is not None:
                            notify_all(self._observers,
                                       "tenant_request_completed",
                                       request.tenant, latency_ms)
                    reply.end()
                    request.span.end()
                else:
                    request.future.set_result(row)
                    notify_all(self._observers, "request_completed",
                               latency_ms)
                    if request.tenant is not None:
                        notify_all(self._observers,
                                   "tenant_request_completed",
                                   request.tenant, latency_ms)
                if request.tenant is not None and self.tenancy is not None:
                    self.tenancy.state(request.tenant).count("completed")
                self._queue.task_done()
            served += len(group)
            total_hits += hits
        if batch_span is not None:
            batch_span.end()
        # One batch_completed per *collected* micro-batch -- the batch
        # count / size histogram / service window keep meaning what they
        # measured before mixed-kind traffic existed.  Groups that failed
        # already reported batch_failed and are excluded here.
        if served:
            notify_all(self._observers, "batch_completed", served, total_hits,
                       served - total_hits,
                       (time.perf_counter() - collected_at) * 1e3)

    def _stage(self, parent: Any, name: str, **attributes: Any):
        """A traced stage under ``parent``, or a no-op when tracing is off."""
        if self._tracer is None or parent is None:
            return nullcontext()
        return self._tracer.span(name, parent=parent,
                                 attributes=attributes or None)

    def _answer(self, live: List[ServeRequest], k: Optional[int] = None,
                batch_span: Any = None) -> tuple[List[np.ndarray], int]:
        """Prepare, consult the cache, execute the misses; returns (rows, hits).

        Misses sharing a cache key within one micro-batch (Zipf-popular
        repeats arriving together) are coalesced: the engine computes each
        distinct query once and every duplicate gets the same row.  For a
        top-k group (``k`` is not ``None``) the engine's per-sample keys
        are suffixed with ``k``, so a query's logits and its top-k answers
        for different ``k`` coexist in one cache without aliasing.
        """
        samples = np.stack([request.sample for request in live])
        count = len(live)
        with self._stage(batch_span, "prepare", queries=count):
            if self._prepare_takes_want_keys:
                prepared = self.engine.prepare(samples,
                                               want_keys=self.cache is not None)
            else:
                prepared = self.engine.prepare(samples)
        results: List[Optional[np.ndarray]] = [None] * count
        hits = 0
        keys = prepared.keys if self.cache is not None else None
        if keys is not None and k is not None:
            suffix = b"topk" + int(k).to_bytes(8, "little")
            keys = tuple(key + suffix for key in keys)
        if keys is not None and any(request.key_suffix for request in live):
            # Per-tenant cache namespace: the suffix isolates tenants from
            # each other's entries (a k-group can mix tenants).
            keys = tuple(key + request.key_suffix
                         for key, request in zip(keys, live))
        if keys is not None:
            with self._stage(batch_span, "cache_lookup", queries=count) as look:
                for index, key in enumerate(keys):
                    row = self.cache.get(key)
                    if row is not None:
                        results[index] = row
                        hits += 1
                        if live[index].span is not None:
                            live[index].span.set_attribute("cache.hit", True)
                            # Provenance link: the trace whose cache_write
                            # computed this answer ("who paid for it").
                            producer = self.cache.provenance(key)
                            if producer is not None:
                                live[index].span.set_attribute(
                                    "link.trace_id", producer)
                if look is not None:
                    look.set_attribute("hits", hits)
        if batch_span is not None:
            for request in live:
                if request.span is not None:
                    request.span.attributes.setdefault("cache.hit", False)
        miss_indices = [index for index in range(count) if results[index] is None]
        if miss_indices:
            if keys is not None:
                slot_by_key: Dict[bytes, int] = {}
                execute_indices: List[int] = []
                miss_slots = []
                for index in miss_indices:
                    slot = slot_by_key.get(keys[index])
                    if slot is None:
                        slot = len(execute_indices)
                        slot_by_key[keys[index]] = slot
                        execute_indices.append(index)
                    miss_slots.append(slot)
            else:
                execute_indices = miss_indices
                miss_slots = list(range(len(miss_indices)))
            subset = (prepared if len(execute_indices) == count
                      else prepared.select(execute_indices))
            # The execute stage is *ambient*: the sharded pipeline (and the
            # TracingObserver fed by its shard_search events) attaches its
            # fanout/gather/digitise spans under whatever span is current
            # on this thread.
            with self._stage(batch_span, "execute",
                             queries=len(execute_indices),
                             **({} if k is None else {"k": int(k)})):
                if k is None:
                    logits = np.asarray(self.engine.execute(subset))
                else:
                    logits = np.asarray(self.engine.execute_topk(subset, k))
            if logits.ndim != 2 or logits.shape[0] != len(execute_indices):
                raise RuntimeError(
                    f"engine returned shape {logits.shape} for "
                    f"{len(execute_indices)} queries")
            rows: List[np.ndarray] = []
            for position in range(len(execute_indices)):
                row = np.ascontiguousarray(logits[position])
                row.flags.writeable = False
                rows.append(row)
            if keys is not None:
                with self._stage(batch_span, "cache_write",
                                 entries=len(execute_indices)):
                    for position, index in enumerate(execute_indices):
                        span = live[index].span
                        self.cache.put(
                            keys[index], rows[position],
                            trace_id=span.trace_id
                            if span is not None else None)
            for slot, index in zip(miss_slots, miss_indices):
                results[index] = rows[slot]
        return results, hits  # type: ignore[return-value]

    # -- reporting ---------------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests currently enqueued (excludes in-flight batches)."""
        return self._queue.qsize()

    def stats(self) -> Dict[str, Any]:
        """Metrics snapshot merged with cache and engine counters."""
        snapshot = self.metrics.snapshot()
        snapshot["config"] = {
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "adaptive_wait": self.config.adaptive_wait,
            "queue_depth": self.config.queue_depth,
            "num_workers": self.config.num_workers,
            "full_policy": self.config.full_policy,
            "cache_capacity": (self.cache.capacity if self.cache is not None else 0),
        }
        if self.cache is not None:
            snapshot["cache"].update(self.cache.stats().to_dict())
        engine_stats = getattr(self.engine, "stats", None)
        if callable(engine_stats):
            snapshot["engine"] = engine_stats()
        snapshot["engine_name"] = getattr(self.engine, "name", "unknown")
        snapshot["blas_threads"] = blas.thread_count()
        if self._tracer is not None:
            snapshot["obs"] = self._tracer.snapshot()
        if self.tenancy is not None:
            # Merge the registry's admission/policy view into the metrics
            # aggregator's latency view (snapshot() already seeded it).
            tenants = snapshot.setdefault("tenants", {})
            for name, info in self.tenancy.snapshot().items():
                tenants.setdefault(name, {}).update(info)
            if isinstance(self._queue, TenantQueues):
                for name, depth in self._queue.depths().items():
                    tenants.setdefault(name, {})["queued"] = depth
        return snapshot
