"""Tests for the adder tree and shift-accumulator periphery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cmem.adder_tree import AdderTree, ShiftAccumulator
from repro.cmem.geometry import COLS, LANE_WIDTH, LANES
from repro.errors import CMemError


class TestAdderTree:
    def test_full_mask_popcount(self):
        tree = AdderTree()
        bits = np.zeros(256, dtype=np.uint8)
        bits[::2] = 1
        assert tree.popcount(bits) == 128

    def test_lane_masking(self):
        tree = AdderTree()
        bits = np.ones(256, dtype=np.uint8)
        assert tree.popcount(bits, mask=0x01) == 32
        assert tree.popcount(bits, mask=0x03) == 64
        assert tree.popcount(bits, mask=0x80) == 32

    @given(st.integers(0, 255), st.integers(0, 2 ** 32 - 1))
    def test_mask_selects_expected_lanes(self, mask, seed):
        tree = AdderTree()
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 256).astype(np.uint8)
        expected = sum(
            bits[32 * lane : 32 * (lane + 1)].sum()
            for lane in range(8)
            if (mask >> lane) & 1
        )
        assert tree.popcount(bits, mask) == expected

    def test_invalid_mask(self):
        with pytest.raises(CMemError):
            AdderTree().popcount(np.zeros(256, dtype=np.uint8), mask=0x100)

    def test_width_check(self):
        with pytest.raises(CMemError):
            AdderTree().popcount(np.zeros(128, dtype=np.uint8))

    def test_width_must_divide_into_lanes(self):
        assert COLS % LANE_WIDTH == 0
        assert LANES * LANE_WIDTH == COLS == 256


class TestShiftAccumulator:
    def test_shift_weighting(self):
        acc = ShiftAccumulator()
        acc.accumulate(3, shift=4)
        assert acc.value == 48

    def test_signed_partial(self):
        acc = ShiftAccumulator()
        acc.accumulate(5, shift=0)
        acc.accumulate(2, shift=1, negative=True)
        assert acc.value == 1

    def test_clear(self):
        acc = ShiftAccumulator()
        acc.accumulate(1, 0)
        acc.clear()
        assert acc.value == 0

    def test_negative_shift_rejected(self):
        with pytest.raises(CMemError):
            ShiftAccumulator().accumulate(1, shift=-1)
