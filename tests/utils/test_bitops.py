"""Unit + property tests for the transposed bit-matrix helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SRAMError
from repro.utils.bitops import (
    int_to_bits,
    pack_transposed,
    popcount,
    sign_extend,
    to_twos_complement,
)
from tests.readback import bits_to_int


class TestTwosComplement:
    def test_positive_values_unchanged(self):
        values = np.array([0, 1, 127])
        assert np.array_equal(to_twos_complement(values, 8), values)

    def test_negative_encoding(self):
        assert to_twos_complement(np.array([-1]), 8)[0] == 255
        assert to_twos_complement(np.array([-128]), 8)[0] == 128

    def test_out_of_range_raises(self):
        with pytest.raises(SRAMError):
            to_twos_complement(np.array([128]), 8)
        with pytest.raises(SRAMError):
            to_twos_complement(np.array([-129]), 8)

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=64))
    def test_roundtrip(self, values):
        arr = np.array(values)
        encoded = to_twos_complement(arr, 8)
        assert [sign_extend(int(v), 8) for v in encoded] == values

    @given(st.integers(-(2 ** 15), 2 ** 15 - 1))
    def test_sign_extend_roundtrip(self, value):
        pattern = value & 0xFFFF
        assert sign_extend(pattern, 16) == value


class TestBitMatrix:
    def test_lsb_first_layout(self):
        bits = int_to_bits(np.array([5]), 4)
        assert bits[:, 0].tolist() == [1, 0, 1, 0]

    def test_unsigned_range_check(self):
        with pytest.raises(SRAMError):
            int_to_bits(np.array([16]), 4)
        with pytest.raises(SRAMError):
            int_to_bits(np.array([-1]), 4)

    @given(
        st.lists(st.integers(-128, 127), min_size=1, max_size=256),
        st.sampled_from([8, 16]),
    )
    def test_signed_roundtrip(self, values, n_bits):
        arr = np.array(values)
        bits = int_to_bits(arr, n_bits, signed=True)
        assert bits.shape == (n_bits, len(values))
        assert np.array_equal(bits_to_int(bits, signed=True), arr)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=256))
    def test_unsigned_roundtrip(self, values):
        arr = np.array(values)
        assert np.array_equal(bits_to_int(int_to_bits(arr, 8)), arr)

    def test_popcount(self):
        assert popcount(np.array([1, 0, 1, 1], dtype=np.uint8)) == 3
        assert popcount(np.zeros(256, dtype=np.uint8)) == 0


class TestPackTransposed:
    def test_pads_to_width(self):
        bits = pack_transposed(np.array([3, 1]), 4, 8)
        assert bits.shape == (4, 8)
        assert bits[:, 2:].sum() == 0

    def test_rejects_oversized_vector(self):
        with pytest.raises(SRAMError):
            pack_transposed(np.arange(10), 8, 4)

    def test_rejects_matrix_input(self):
        with pytest.raises(SRAMError):
            pack_transposed(np.zeros((2, 2)), 8, 8)

    @given(st.lists(st.integers(-8, 7), min_size=1, max_size=32))
    def test_roundtrip_through_padding(self, values):
        arr = np.array(values)
        bits = pack_transposed(arr, 4, 64, signed=True)
        out = bits_to_int(bits[:, : len(values)], signed=True)
        assert np.array_equal(out, arr)
