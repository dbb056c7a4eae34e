"""The thread engine: today's fan-out behaviour behind the plane interface.

A lazily created, persistent ``ThreadPoolExecutor`` sized by the worker
budget (never by shard count -- the pool-reuse bug the plane fixes).
Threads only overlap where NumPy releases the GIL, so this engine is a
wash on pure-Python work and on single-core boxes; it exists so the
pre-plane behaviour stays selectable and measurable against the others.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.exec import tasks
from repro.exec.base import Executor, Selector, StorageHandle, resolve_workers


class ThreadExecutor(Executor):
    """Fan-out on a shared thread pool of ``workers`` threads."""

    name = "threads"
    in_process = True

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers=resolve_workers(workers))
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _get_pool(self) -> ThreadPoolExecutor:
        """The pool, spawned on first use so idle engines cost nothing."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec")
            return self._pool

    def _map(self, fn: Callable[..., Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items``; serial when fanning out cannot help."""
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._get_pool().map(fn, items))

    def hamming_fanout(self, queries: np.ndarray,
                       storage: Union[np.ndarray, StorageHandle],
                       selectors: Sequence[Selector]) -> List[np.ndarray]:
        handle = self.as_handle(storage)
        data = handle.array
        rows = data.shape[0]
        normalized = [tasks.normalize_selector(selector, rows)
                      for selector in selectors]
        return self._map(
            lambda selector: tasks.count_rows(data, selector, queries),
            normalized)

    def hamming_blocked(self, a_packed: np.ndarray,
                        b_packed: Union[np.ndarray, StorageHandle]) -> np.ndarray:
        a = np.ascontiguousarray(a_packed, dtype=np.uint64)
        b = self.as_handle(b_packed).array
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
        if out.size == 0:
            return out
        bt = tasks.word_major(b)
        spans = tasks.kernel_spans(a.shape[0], b.shape[0])
        self._map(lambda span: tasks.fill_block(a, bt, out, *span), spans)
        return out

    def run_tasks(self, fns: Sequence[Callable[[], Any]]) -> List[Any]:
        return self._map(lambda fn: fn(), fns)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
