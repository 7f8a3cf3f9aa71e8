"""Tests for Neural-Cache-style element-wise bit-serial arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SRAMError
from repro.sram.array import SRAMArray, SRAMArrayConfig
from repro.sram.bitserial import BitSerialCosts
from repro.utils.bitops import int_to_bits
from tests.bitserial import BitSerialALU
from tests.readback import bits_to_int


def make_alu(rows=256, cols=256):
    return BitSerialALU(SRAMArray(SRAMArrayConfig(rows=rows, cols=cols)))


def stage(alu, rows, values, n_bits, signed=False):
    bits = int_to_bits(np.asarray(values), n_bits, signed=signed)
    padded = np.zeros((n_bits, alu.array.config.cols), dtype=np.uint8)
    padded[:, : len(values)] = bits
    for i, row in enumerate(rows):
        alu.array.write_row(row, padded[i])


def read(alu, rows, count, signed=False):
    bits = np.stack([alu.array.read_row(r)[:count] for r in rows])
    return bits_to_int(bits, signed=signed)


class TestCosts:
    def test_paper_closed_forms(self):
        # Neural Cache: n+1 for addition, n^2+5n-2 for multiplication.
        assert BitSerialCosts.add(8) == 9
        assert BitSerialCosts.multiply(8) == 102
        assert BitSerialCosts.multiply(4) == 34

    def test_reduce_requires_power_of_two(self):
        with pytest.raises(SRAMError):
            BitSerialCosts.reduce(100, 8)

    def test_reduce_has_log_steps(self):
        # 256 lanes -> 8 shift+add iterations.
        cost = BitSerialCosts.reduce(256, 8)
        manual = sum((8 + k) * 2 + 1 for k in range(8))
        assert cost == manual


class TestAdd:
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=64),
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_numpy(self, values, seed):
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 256, len(values))
        alu = make_alu(rows=32)
        stage(alu, range(0, 8), values, 8)
        stage(alu, range(8, 16), b, 8)
        alu.vector_add(list(range(0, 8)), list(range(8, 16)), list(range(16, 25)))
        out = read(alu, range(16, 25), len(values))
        assert np.array_equal(out, np.asarray(values) + b)

    def test_carry_out_row(self):
        alu = make_alu(rows=32)
        stage(alu, range(0, 8), [255], 8)
        stage(alu, range(8, 16), [255], 8)
        alu.vector_add(list(range(0, 8)), list(range(8, 16)), list(range(16, 25)))
        assert read(alu, range(16, 25), 1)[0] == 510

    def test_overlap_rejected(self):
        alu = make_alu(rows=32)
        with pytest.raises(SRAMError):
            alu.vector_add(list(range(0, 8)), list(range(8, 16)), list(range(7, 16)))

    def test_width_mismatch_rejected(self):
        alu = make_alu(rows=32)
        with pytest.raises(SRAMError):
            alu.vector_add([0, 1], [2], [3, 4, 5])

    def test_cycle_accounting(self):
        alu = make_alu(rows=32)
        stage(alu, range(0, 8), [1], 8)
        stage(alu, range(8, 16), [2], 8)
        alu.vector_add(list(range(0, 8)), list(range(8, 16)), list(range(16, 25)))
        assert alu.cycles == BitSerialCosts.add(8)


class TestMultiply:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unsigned_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, 32)
        b = rng.integers(0, 256, 32)
        alu = make_alu(rows=64)
        stage(alu, range(0, 8), a, 8)
        stage(alu, range(8, 16), b, 8)
        alu.vector_multiply(list(range(0, 8)), list(range(8, 16)), list(range(16, 32)))
        assert np.array_equal(read(alu, range(16, 32), 32), a * b)

    def test_signed_product(self):
        alu = make_alu(rows=64)
        stage(alu, range(0, 8), [-3, 5], 8, signed=True)
        stage(alu, range(8, 16), [7, -2], 8, signed=True)
        alu.vector_multiply(
            list(range(0, 8)), list(range(8, 16)), list(range(16, 32)), signed=True
        )
        out = read(alu, range(16, 32), 2, signed=True)
        assert out.tolist() == [-21, -10]

    def test_result_rows_requirement(self):
        alu = make_alu(rows=64)
        with pytest.raises(SRAMError):
            alu.vector_multiply(list(range(0, 8)), list(range(8, 16)), [20])


class TestCopyAndReduce:
    def test_copy(self):
        alu = make_alu(rows=32)
        stage(alu, range(0, 8), [42, 7], 8)
        alu.vector_copy(list(range(0, 8)), list(range(8, 16)))
        assert read(alu, range(8, 16), 2).tolist() == [42, 7]
        with pytest.raises(SRAMError):
            alu.vector_copy([0], [1, 2])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_reduce_sums_all_lanes(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, 256)
        alu = make_alu(rows=64)
        stage(alu, range(0, 8), values, 8)
        rows = alu.reduce(list(range(0, 8)), 256, scratch_rows=list(range(8, 32)))
        total = read(alu, rows, 1)[0]
        assert total == values.sum()

    def test_reduce_scratch_requirement(self):
        alu = make_alu(rows=32)
        with pytest.raises(SRAMError):
            alu.reduce(list(range(0, 8)), 256, scratch_rows=[8, 9])
