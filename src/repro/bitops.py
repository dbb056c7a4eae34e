"""Bit-packed signature kernels: pack/unpack and XOR+popcount Hamming distance.

The paper's CAM computes per-row Hamming distances in O(1) inside the
array; the software-exact counterpart in this repository was originally a
dense +-1 int16 GEMM over *unpacked* uint8 bit matrices.  This module is the
packed replacement: signatures are stored as little-endian ``uint64`` words
(64 bits per word, trailing bits zero-padded) and pairwise distances are
computed as ``popcount(a XOR b)`` summed over words.  Compared to the GEMM
path this moves 8-64x less memory per signature and does one popcount per 64
bits instead of 64 multiply-accumulates, which is the canonical fast path
for LSH/Hamming workloads.

Two popcount backends are provided:

* ``np.bitwise_count`` (NumPy >= 2.0) -- a single vectorised ufunc; and
* a 256-entry ``uint8`` lookup table applied to the byte view of the packed
  words -- the portable fallback, also kept importable so the equivalence
  tests can pin both backends against each other.

Both backends are bit-exact; :func:`packed_hamming_matrix` is bit-exact
against the naive XOR-sum over unpacked bits for any bit length, including
lengths not divisible by 8 or 64 (the zero padding cancels in the XOR).

The pairwise kernel transposes its right operand once per call to
word-major ``(words, rows_b)`` order, so every per-word XOR streams one
contiguous row instead of striding across ``b``'s rows.  It then walks
``rows_a`` in blocks sized by element count (:data:`KERNEL_BLOCK_ELEMENTS`,
so the block's XOR, popcount and accumulator buffers stay cache-resident
whatever ``rows_b`` is) and reuses those preallocated buffers, via
``out=``, for every word of every block.

Parallel execution is not this module's job: :func:`packed_hamming_matrix`
is serial unless an execution-plane engine is named (``executor=`` or
``REPRO_EXECUTOR``), and then the engine's ``hamming_blocked`` runs the
same block body (:func:`hamming_rows` / :func:`_hamming_block`) on its
workers.

This module is deliberately a *leaf*: it depends on NumPy only.  Both
``repro.core`` (hashing, simulator) and ``repro.cam`` (array storage and
search) build on these kernels, so the implementation must not import
either package; it is the one public path of the kernels.
"""

from __future__ import annotations

import os
import threading

import numpy as np

#: Bits per packed storage word.
WORD_BITS: int = 64

#: Bytes per packed storage word.
WORD_BYTES: int = WORD_BITS // 8

#: Number of 1-bits in each possible byte value (the classic popcount LUT).
POPCOUNT_LUT: np.ndarray = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)
POPCOUNT_LUT.flags.writeable = False

#: Whether the vectorised popcount ufunc is available (NumPy >= 2.0).
HAVE_BITWISE_COUNT: bool = hasattr(np, "bitwise_count")

#: Largest bit length the legacy +-1 int16 GEMM path can handle without
#: overflow: the agreement matrix lies in [-k, k], so k must fit in int16.
INT16_SAFE_MAX_BITS: int = int(np.iinfo(np.int16).max)

#: Target size, in ``(row_a, row_b)`` pairs, of one block of the pairwise
#: kernel: the block's uint64 XOR buffer (256 KiB at this size) plus its
#: popcount and accumulator buffers fit a typical per-core L2 cache.
KERNEL_BLOCK_ELEMENTS: int = 32 * 1024

#: Environment variable selecting the execution-plane engine
#: (``inline`` / ``threads`` / ``processes``).  Defined here -- the leaf
#: module -- so :mod:`repro.exec` can import it without a cycle; when it
#: is set and the caller names no engine, the pairwise kernel routes
#: through :mod:`repro.exec` instead of running serially.
EXECUTOR_ENV: str = "REPRO_EXECUTOR"

_PLANE_LOCK = threading.Lock()
_PLANE_EXECUTORS: dict = {}


def _plane_executor(spec):
    """The shared execution-plane engine for ``spec``.

    ``spec`` is an engine name or an :class:`repro.exec.Executor`
    instance (returned as-is).  Named engines are created once and cached
    for the life of the process: the process engine reaps its own idle
    pool, so a cached instance costs nothing while unused.  The import is
    deferred because :mod:`repro.exec` builds on this module.
    """
    from repro import exec as exec_plane

    if not isinstance(spec, str):
        return spec
    name = exec_plane.resolve_executor_name(spec)
    with _PLANE_LOCK:
        engine = _PLANE_EXECUTORS.get(name)
        if engine is None:
            engine = exec_plane.resolve_executor(name)
            _PLANE_EXECUTORS[name] = engine
        return engine


def words_for_bits(bit_length: int) -> int:
    """Number of 64-bit storage words needed for ``bit_length`` bits."""
    if bit_length <= 0:
        raise ValueError("bit_length must be positive")
    return -(-int(bit_length) // WORD_BITS)


def popcount_lut(words: np.ndarray) -> np.ndarray:
    """Per-element popcount via the byte LUT (portable fallback backend)."""
    data = np.ascontiguousarray(words, dtype=np.uint64)
    counts = POPCOUNT_LUT[data.view(np.uint8)]
    return counts.reshape(data.shape + (WORD_BYTES,)).sum(axis=-1, dtype=np.int64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (fast backend if available)."""
    data = np.asarray(words, dtype=np.uint64)
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(data).astype(np.int64)
    return popcount_lut(data)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 bits along the last axis into little-endian ``uint64`` words.

    Parameters
    ----------
    bits:
        ``(..., k)`` array of 0/1 values (any integer/bool dtype; nonzero is
        treated as 1, matching ``np.packbits``).

    Returns
    -------
    np.ndarray
        ``(..., ceil(k / 64))`` array of ``uint64`` words.  Trailing bits of
        the last word are zero, so XORs between equally sized packings never
        see padding mismatches.
    """
    data = np.asarray(bits)
    if data.ndim == 0:
        raise ValueError("bits must have at least one dimension")
    bit_length = data.shape[-1]
    if bit_length == 0:
        raise ValueError("bits must have at least one bit along the last axis")
    words = words_for_bits(bit_length)
    # np.packbits interprets uint8/bool elements as booleans (nonzero -> 1);
    # wider dtypes must be thresholded explicitly, not astype-truncated,
    # or values like 256 would wrap to 0 and drop bits.
    if data.dtype not in (np.uint8, np.bool_):
        data = data != 0
    packed_bytes = np.packbits(data, axis=-1, bitorder="little")
    padded = np.zeros(data.shape[:-1] + (words * WORD_BYTES,), dtype=np.uint8)
    padded[..., : packed_bytes.shape[-1]] = packed_bytes
    return padded.view(np.uint64)


def unpack_bits(packed: np.ndarray, bit_length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the ``(..., bit_length)`` bits."""
    data = np.ascontiguousarray(packed, dtype=np.uint64)
    if data.ndim == 0:
        raise ValueError("packed must have at least one dimension")
    if words_for_bits(bit_length) != data.shape[-1]:
        raise ValueError(
            f"bit_length {bit_length} needs {words_for_bits(bit_length)} words, "
            f"packed array has {data.shape[-1]}"
        )
    as_bytes = data.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :bit_length]


def _accumulator_dtype(word_count: int) -> np.dtype:
    """Smallest unsigned accumulator that cannot overflow a row's popcount."""
    max_count = word_count * WORD_BITS
    if max_count <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def packed_hamming_vector(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Hamming distances between one packed query and many packed rows.

    Parameters
    ----------
    query:
        ``(words,)`` packed signature.
    matrix:
        ``(rows, words)`` packed signatures.

    Returns
    -------
    np.ndarray
        ``(rows,)`` ``int64`` distances.  This is the 1-vs-many hot path of
        :meth:`repro.cam.array.CamArray.search`.
    """
    q = np.asarray(query, dtype=np.uint64).ravel()
    m = np.asarray(matrix, dtype=np.uint64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D (rows, words)")
    if q.size != m.shape[1]:
        raise ValueError(
            f"query has {q.size} words, matrix rows have {m.shape[1]}"
        )
    return popcount(m ^ q[None, :]).sum(axis=1, dtype=np.int64)


def kernel_block_rows(rows_b: int) -> int:
    """Rows of ``a`` per kernel block against ``rows_b`` rows of ``b``."""
    return max(1, KERNEL_BLOCK_ELEMENTS // max(1, rows_b))


def kernel_spans(rows_a: int, rows_b: int) -> list[tuple[int, int]]:
    """The cache-sized ``(start, stop)`` row blocks of the pairwise kernel."""
    step = kernel_block_rows(rows_b)
    return [(start, min(start + step, rows_a)) for start in range(0, rows_a, step)]


def word_major(b: np.ndarray) -> np.ndarray:
    """``(rows, words)`` packed rows as a contiguous ``(words, rows)`` array."""
    return np.ascontiguousarray(np.asarray(b, dtype=np.uint64).T)


def _block_buffers(height: int, rows_b: int, acc_dtype: np.dtype):
    """XOR, popcount and accumulator buffers for blocks of ``height`` rows."""
    return (np.empty((height, rows_b), dtype=np.uint64),
            np.empty((height, rows_b), dtype=np.uint8),
            np.empty((height, rows_b), dtype=acc_dtype))


def _hamming_block(a: np.ndarray, bt: np.ndarray, out: np.ndarray,
                   start: int, stop: int, acc_dtype: np.dtype,
                   buffers=None) -> None:
    """Fill ``out[start:stop]`` with distances of ``a[start:stop]`` vs ``b``.

    ``bt`` is ``b`` in word-major order (:func:`word_major`); ``buffers``
    (from :func:`_block_buffers`, at least ``stop - start`` rows tall) are
    reused across calls when given.
    """
    height = stop - start
    if buffers is None:
        buffers = _block_buffers(height, bt.shape[1], acc_dtype)
    xor, count, acc = (buffer[:height] for buffer in buffers)
    acc.fill(0)
    for word in range(a.shape[1]):
        np.bitwise_xor(a[start:stop, word, None], bt[word], out=xor)
        if HAVE_BITWISE_COUNT:
            np.bitwise_count(xor, out=count)
        else:
            POPCOUNT_LUT[xor.view(np.uint8)].reshape(xor.shape + (WORD_BYTES,)).sum(
                axis=-1, dtype=np.uint8, out=count)
        np.add(acc, count, out=acc)
    out[start:stop] = acc


def hamming_rows(a: np.ndarray, bt: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with every block of ``a`` vs word-major ``bt``, serially.

    One set of block buffers serves every block.  This is the serial
    kernel's loop; the execution plane's process workers run it on their
    own span of ``a``.
    """
    rows_b = bt.shape[1]
    acc_dtype = _accumulator_dtype(a.shape[1])
    buffers = _block_buffers(min(kernel_block_rows(rows_b), a.shape[0]),
                             rows_b, acc_dtype)
    for start, stop in kernel_spans(a.shape[0], rows_b):
        _hamming_block(a, bt, out, start, stop, acc_dtype, buffers)


def packed_hamming_matrix(a_packed: np.ndarray, b_packed: np.ndarray,
                          executor=None) -> np.ndarray:
    """Pairwise Hamming distances between two packed signature sets.

    Parameters
    ----------
    a_packed:
        ``(rows_a, words)`` packed signatures.
    b_packed:
        ``(rows_b, words)`` packed signatures.
    executor:
        Execution-plane engine: an engine name (``"inline"``,
        ``"threads"``, ``"processes"``) or an :class:`repro.exec.Executor`
        instance.  When given, the row blocks run on that engine.  When
        ``None``, the ``REPRO_EXECUTOR`` environment variable (if set)
        selects the engine, and the kernel runs serially when that is
        unset too.  The plane's own tasks call the serial loop
        (:func:`hamming_rows`) directly, which is what keeps process
        workers -- which inherit the environment across ``fork`` -- from
        re-entering the plane recursively.

    Returns
    -------
    np.ndarray
        ``(rows_a, rows_b)`` ``int64`` distance matrix, bit-exact against
        the naive XOR-sum over the unpacked bits (all engines run the
        same block body over disjoint output rows, so serial, thread and
        process results are identical bytes).

    The kernel transposes ``b`` once to word-major order, iterates over
    the (few) words and blocks over ``rows_a`` by element count, so the
    reused block buffers stay cache-resident; distances accumulate in the
    narrowest dtype that cannot overflow.
    """
    a = np.ascontiguousarray(a_packed, dtype=np.uint64)
    b = np.ascontiguousarray(b_packed, dtype=np.uint64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("both operands must be 2-D packed matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"operands disagree on word count: {a.shape[1]} vs {b.shape[1]}"
        )
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
    if out.size == 0:
        return out
    if executor is None:
        executor = os.environ.get(EXECUTOR_ENV, "").strip() or None
    if executor is not None:
        return _plane_executor(executor).hamming_blocked(a, b)
    hamming_rows(a, word_major(b), out)
    return out
