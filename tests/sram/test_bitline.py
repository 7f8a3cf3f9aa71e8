"""Property tests for the bit-line computing primitive."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sram.bitline import bitline_and_nor

bit_rows = st.lists(st.integers(0, 1), min_size=1, max_size=256).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)


@given(bit_rows)
def test_and_nor_against_self_like_rows(row):
    other = 1 - row
    sensed = bitline_and_nor(row, other)
    # A bit and its complement can never both be 1 (AND) nor both 0 (NOR).
    assert sensed.and_bits.sum() == 0
    assert sensed.nor_bits.sum() == 0


@given(st.integers(1, 256), st.integers(0, 2 ** 32 - 1))
def test_all_derived_gates(width, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, width).astype(np.uint8)
    b = rng.integers(0, 2, width).astype(np.uint8)
    sensed = bitline_and_nor(a, b)
    assert np.array_equal(sensed.and_bits, a & b)
    assert np.array_equal(sensed.nor_bits, (~(a | b)) & 1)
    assert np.array_equal(sensed.or_bits, a | b)


def test_symmetry():
    a = np.array([1, 0, 1, 0], dtype=np.uint8)
    b = np.array([1, 1, 0, 0], dtype=np.uint8)
    ab, ba = bitline_and_nor(a, b), bitline_and_nor(b, a)
    assert np.array_equal(ab.and_bits, ba.and_bits)
    assert np.array_equal(ab.nor_bits, ba.nor_bits)
