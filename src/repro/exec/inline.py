"""The serial reference engine: every task runs in the calling thread.

``inline`` is both the baseline the other engines are measured against
and the crash-containment fallback of the process engine -- it has no
pool, no workers and no state, so it can never fail for infrastructure
reasons.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.exec import tasks
from repro.exec.base import Executor, Selector, StorageHandle


class InlineExecutor(Executor):
    """Serial reference execution of the fan-out primitives."""

    name = "inline"
    in_process = True

    def __init__(self) -> None:
        super().__init__(workers=1)

    def hamming_fanout(self, queries: np.ndarray,
                       storage: Union[np.ndarray, StorageHandle],
                       selectors: Sequence[Selector]) -> List[np.ndarray]:
        handle = self.as_handle(storage)
        data = handle.array
        rows = data.shape[0]
        return [tasks.count_rows(
                    data, tasks.normalize_selector(selector, rows), queries)
                for selector in selectors]

    def hamming_blocked(self, a_packed: np.ndarray,
                        b_packed: Union[np.ndarray, StorageHandle]) -> np.ndarray:
        a = np.ascontiguousarray(a_packed, dtype=np.uint64)
        b = self.as_handle(b_packed).array
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
        if out.size == 0:
            return out
        tasks.fill_span(a, b, out)
        return out
