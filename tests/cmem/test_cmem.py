"""Tests for the full computing memory: the MAC primitive above all."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmem.cmem import CMem
from repro.cmem.geometry import COLS, ROWS, SLICES
from repro.errors import CMemError, SliceIndexError
from tests.readback import read_transposed


@pytest.fixture
def cmem():
    return CMem()


class TestConfig:
    def test_paper_design_point(self, cmem):
        assert SLICES == 8
        assert len(cmem.compute_slices) == SLICES - 1 == 7

    def test_fixed_slice_geometry(self, cmem):
        assert (ROWS, COLS) == (64, 256)
        for index in range(SLICES):
            array = cmem.slice(index).array.config
            assert (array.rows, array.cols) == (ROWS, COLS)


class TestSliceAddressing:
    def test_slice_zero_is_transpose_buffer(self, cmem):
        assert cmem.slice(0) is cmem.slice0

    def test_compute_slice_range(self, cmem):
        assert cmem.slice(7).index == 7
        with pytest.raises(SliceIndexError):
            cmem.slice(8)


class TestMAC:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_signed_dot_product(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-128, 128, 256)
        b = rng.integers(-128, 128, 256)
        cmem = CMem()
        cmem.store_vector_transposed(1, 0, a, 8, signed=True)
        cmem.store_vector_transposed(1, 8, b, 8, signed=True)
        assert cmem.mac(1, 0, 8, 8, signed=True) == int(np.dot(a, b))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_unsigned_dot_product(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, 256)
        b = rng.integers(0, 256, 256)
        cmem = CMem()
        cmem.store_vector_transposed(2, 0, a, 8, signed=False)
        cmem.store_vector_transposed(2, 8, b, 8, signed=False)
        assert cmem.mac(2, 0, 8, 8, signed=False) == int(np.dot(a, b))

    @pytest.mark.parametrize("n_bits", [2, 4, 16])
    def test_other_precisions(self, cmem, n_bits):
        rng = np.random.default_rng(n_bits)
        lo, hi = -(1 << (n_bits - 1)), (1 << (n_bits - 1))
        a = rng.integers(lo, hi, 256)
        b = rng.integers(lo, hi, 256)
        cmem.store_vector_transposed(1, 0, a, n_bits, signed=True)
        cmem.store_vector_transposed(1, n_bits, b, n_bits, signed=True)
        assert cmem.mac(1, 0, n_bits, n_bits, signed=True) == int(np.dot(a, b))

    def test_csr_mask_restricts_lanes(self, cmem):
        rng = np.random.default_rng(0)
        a = rng.integers(-128, 128, 256)
        b = rng.integers(-128, 128, 256)
        cmem.store_vector_transposed(3, 0, a, 8, signed=True)
        cmem.store_vector_transposed(3, 8, b, 8, signed=True)
        got = cmem.mac(3, 0, 8, 8, signed=True, mask=0x03)
        assert got == int(np.dot(a[:64], b[:64]))

    def test_mac_on_slice0_rejected(self, cmem):
        with pytest.raises(CMemError):
            cmem.mac(0, 0, 8, 8)

    def test_overlapping_operands_rejected(self, cmem):
        with pytest.raises(CMemError):
            cmem.mac(1, 0, 4, 8)

    def test_rows_beyond_slice_rejected(self, cmem):
        with pytest.raises(CMemError):
            cmem.mac(1, 60, 0, 8)

    def test_cycle_cost_accounted(self, cmem):
        cmem.store_vector_transposed(1, 0, [1], 8, signed=True)
        cmem.store_vector_transposed(1, 8, [1], 8, signed=True)
        before = cmem.stats.busy_cycles
        cmem.mac(1, 0, 8, 8)
        assert cmem.stats.busy_cycles - before == 64
        assert cmem.stats.macs == 1


class TestMoveAndRows:
    def test_move_copies_vector(self, cmem):
        values = np.arange(-128, 128)
        cmem.store_vector_transposed(1, 8, values, 8, signed=True)
        cmem.move(1, 8, 5, 16, 8)
        out = read_transposed(cmem.slice(5).array, 16, 256, 8, signed=True)
        assert np.array_equal(out, values)
        assert cmem.stats.moves == 1

    def test_move_bounds(self, cmem):
        with pytest.raises(CMemError):
            cmem.move(1, 60, 2, 0, 8)

    def test_set_row(self, cmem):
        cmem.set_row(4, 10, 1)
        assert cmem.slice(4).read_row(10).sum() == 256
        assert cmem.stats.set_rows == 1

    def test_shift_row(self, cmem):
        cmem.set_row(2, 0, 1)
        cmem.shift_row(2, 0, 4)
        assert cmem.slice(2).read_row(0)[:128].sum() == 0
        assert cmem.stats.shift_rows == 1

    def test_remote_row_roundtrip(self, cmem):
        other = CMem()
        cmem.store_vector_transposed(1, 0, [9, 8, 7], 8, signed=True)
        for k in range(8):
            bits = cmem.read_row(1, k)
            other.write_row(2, 8 + k, bits)
        out = read_transposed(other.slice(2).array, 8, 3, 8, signed=True)
        assert out.tolist() == [9, 8, 7]
        assert cmem.stats.remote_rows == 8
        assert other.stats.remote_rows == 8


class TestEnergyAccounting:
    def test_mac_and_move_energy(self, cmem):
        cmem.store_vector_transposed(1, 0, [1], 8, signed=True)
        cmem.store_vector_transposed(1, 8, [1], 8, signed=True)
        base = cmem.energy.total_pj
        cmem.mac(1, 0, 8, 8)
        assert cmem.energy.total_pj - base == pytest.approx(28.25)
        base = cmem.energy.total_pj
        cmem.move(1, 0, 2, 0, 8)
        assert cmem.energy.total_pj - base == pytest.approx(52.75)

    def test_vertical_write_energy(self, cmem):
        base = cmem.energy.total_pj
        cmem.store_vector_transposed(1, 0, [1, 2, 3, 4], 8, signed=True)
        assert cmem.energy.total_pj - base == pytest.approx(4 * 4.75)


class TestStagingHelpers:
    def test_column_offset(self, cmem):
        cmem.store_vector_transposed(1, 0, [5, 6], 8, signed=True, col_offset=100)
        out = read_transposed(cmem.slice(1).array, 0, 2, 8, signed=True, col_offset=100)
        assert out.tolist() == [5, 6]

    def test_bounds(self, cmem):
        with pytest.raises(CMemError):
            cmem.store_vector_transposed(1, 60, [1], 8)
        with pytest.raises(CMemError):
            cmem.store_vector_transposed(1, 0, [1] * 10, 8, col_offset=250)
