"""The word-major, element-count-blocked pairwise kernel.

Every shape below is pinned against the naive XOR-sum over unpacked bits:
ragged operands (a single ``b`` row, ``rows_a`` spanning several blocks,
1 and 17 words), the serial kernel, each execution-plane engine and the
byte-LUT popcount fallback.
"""

import numpy as np
import pytest

from repro import bitops
from repro.bitops import (
    KERNEL_BLOCK_ELEMENTS,
    kernel_block_rows,
    kernel_spans,
    pack_bits,
    packed_hamming_matrix,
    word_major,
)
from repro.exec import EXECUTOR_NAMES, resolve_executor


def naive_hamming(bits_a, bits_b):
    return (bits_a[:, None, :] != bits_b[None, :, :]).sum(axis=-1)


def bit_pair(rng, rows_a, rows_b, bit_length):
    return (rng.integers(0, 2, size=(rows_a, bit_length), dtype=np.uint8),
            rng.integers(0, 2, size=(rows_b, bit_length), dtype=np.uint8))


# rows_b = 1; rows_a over one block (kernel_block_rows(rows_b) rows) and
# over several; 1 word (64 bits and fewer) and 17 words (1088 bits and one
# bit fewer).
RAGGED = [
    (1, 1, 1),
    (700, 1, 64),
    (kernel_block_rows(5) + 3, 5, 63),
    (kernel_block_rows(300) * 3 + 1, 300, 64),
    (40, 2000, 17 * 64),
    (9, 33, 17 * 64 - 1),
    (1, 4097, 130),
]


class TestBlocking:
    def test_block_rows_follow_the_element_budget(self):
        assert kernel_block_rows(1) == KERNEL_BLOCK_ELEMENTS
        assert kernel_block_rows(2048) == KERNEL_BLOCK_ELEMENTS // 2048
        assert kernel_block_rows(10 * KERNEL_BLOCK_ELEMENTS) == 1

    @pytest.mark.parametrize("rows_a,rows_b", [(0, 5), (1, 1), (1000, 64),
                                               (77, 5000)])
    def test_spans_tile_rows_a(self, rows_a, rows_b):
        spans = kernel_spans(rows_a, rows_b)
        covered = [row for start, stop in spans for row in range(start, stop)]
        assert covered == list(range(rows_a))
        assert all(stop - start <= kernel_block_rows(rows_b)
                   for start, stop in spans)

    def test_word_major_is_a_contiguous_transpose(self, rng):
        b = rng.integers(0, 2 ** 63, size=(6, 3), dtype=np.uint64)
        bt = word_major(b)
        assert bt.flags.c_contiguous and np.array_equal(bt, b.T)


class TestRaggedShapes:
    @pytest.mark.parametrize("rows_a,rows_b,bit_length", RAGGED)
    def test_serial_matches_naive(self, rng, rows_a, rows_b, bit_length):
        bits_a, bits_b = bit_pair(rng, rows_a, rows_b, bit_length)
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b))
        assert result.dtype == np.int64
        assert np.array_equal(result, naive_hamming(bits_a, bits_b))

    @pytest.mark.parametrize("rows_a,rows_b,bit_length", RAGGED)
    def test_lut_fallback_matches_naive(self, rng, monkeypatch,
                                        rows_a, rows_b, bit_length):
        monkeypatch.setattr(bitops, "HAVE_BITWISE_COUNT", False)
        bits_a, bits_b = bit_pair(rng, rows_a, rows_b, bit_length)
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b))
        assert np.array_equal(result, naive_hamming(bits_a, bits_b))

    def test_operands_are_not_modified(self, rng):
        bits_a, bits_b = bit_pair(rng, 20, 30, 200)
        a, b = pack_bits(bits_a), pack_bits(bits_b)
        a_copy, b_copy = a.copy(), b.copy()
        packed_hamming_matrix(a, b)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)

    def test_strided_operands(self, rng):
        bits_a, bits_b = bit_pair(rng, 30, 40, 130)
        a, b = pack_bits(bits_a), pack_bits(bits_b)
        result = packed_hamming_matrix(a[::2], b[::3])
        assert np.array_equal(result, naive_hamming(bits_a[::2], bits_b[::3]))


@pytest.fixture(params=list(EXECUTOR_NAMES))
def engine(request):
    executor = resolve_executor(request.param, workers=2)
    yield executor
    executor.close()


class TestEngines:
    @pytest.mark.parametrize("rows_a,rows_b,bit_length", RAGGED)
    def test_engine_matches_naive(self, rng, engine, rows_a, rows_b,
                                  bit_length):
        bits_a, bits_b = bit_pair(rng, rows_a, rows_b, bit_length)
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b),
                                       executor=engine)
        assert result.dtype == np.int64
        assert np.array_equal(result, naive_hamming(bits_a, bits_b))

    def test_engine_lut_fallback_matches_naive(self, rng, engine,
                                               monkeypatch):
        # Process workers fork after the patch, so they inherit it too.
        monkeypatch.setattr(bitops, "HAVE_BITWISE_COUNT", False)
        bits_a, bits_b = bit_pair(rng, 300, 170, 17 * 64)
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b),
                                       executor=engine)
        assert np.array_equal(result, naive_hamming(bits_a, bits_b))
