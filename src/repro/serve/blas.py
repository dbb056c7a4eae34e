"""Serve-plane ownership of NumPy's bundled OpenBLAS thread count.

The serving hot path runs small GEMMs (the batched hash projection) on a
worker thread while submitter threads keep queueing.  Left at its default,
OpenBLAS wakes one thread per core for each of those GEMMs, and they then
compete with the server's own threads; the first batches in a process
can be several times slower than pinned ones.  A running
:class:`~repro.serve.server.MicroBatchServer` therefore holds the count at
1 (:func:`pin_single_thread`) and hands it back on ``stop()``
(:func:`release`).  Pins nest across servers in one process: the first pin
saves the previous count and the last release restores it.  Nothing
happens at import time, and without a reachable OpenBLAS both calls are
no-ops.

The library is reached through ``ctypes`` on its ``set_num_threads`` /
``get_num_threads`` symbols; the (64-bit-interface) symbol prefixes the
NumPy wheels have shipped are tried in turn.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from typing import Callable, List, Optional, Tuple

import numpy as np

#: ``(set, get)`` symbol pairs, most recent NumPy wheel layout first.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_LOCK = threading.Lock()
_HOLDERS = 0
_SAVED: Optional[int] = None


def _bundled_libraries() -> List[str]:
    """OpenBLAS builds shipped inside the NumPy wheel (Linux, then macOS)."""
    package = os.path.dirname(np.__file__)
    return sorted(glob.glob(os.path.join(os.path.dirname(package), "numpy.libs",
                                         "*openblas*"))
                  + glob.glob(os.path.join(package, ".dylibs", "*openblas*")))


@functools.lru_cache(maxsize=None)
def _api() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """The ``(set, get)`` pair of the bundled OpenBLAS, or ``None``."""
    for path in _bundled_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def thread_count() -> Optional[int]:
    """OpenBLAS threads currently in force (``None`` without OpenBLAS)."""
    with _LOCK:
        api = _api()
        return None if api is None else int(api[1]())


def pin_single_thread() -> None:
    """Hold the OpenBLAS thread count at 1 until the matching :func:`release`."""
    global _HOLDERS, _SAVED
    with _LOCK:
        api = _api()
        if api is None:
            return
        if _HOLDERS == 0:
            _SAVED = int(api[1]())
            api[0](1)
        _HOLDERS += 1


def release() -> None:
    """Drop one pin; the last one restores the count saved by the first."""
    global _HOLDERS
    with _LOCK:
        api = _api()
        if api is None or _HOLDERS == 0:
            return
        _HOLDERS -= 1
        if _HOLDERS == 0:
            api[0](_SAVED)
