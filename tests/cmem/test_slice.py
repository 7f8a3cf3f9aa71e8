"""Tests for CMem slices and the slice-0 transpose buffer."""

import numpy as np
import pytest

from repro.cmem.geometry import COLS, ROWS
from repro.cmem.slice import CMemSlice, TransposeBuffer
from repro.errors import CMemError, RowIndexError
from tests.readback import read_transposed


class TestCMemSlice:
    def test_geometry(self):
        s = CMemSlice(1)
        assert (s.array.config.rows, s.array.config.cols) == (ROWS, COLS)
        assert (ROWS, COLS) == (64, 256)

    def test_row_bounds(self):
        s = CMemSlice(1)
        with pytest.raises(RowIndexError):
            s.read_row(64)

    def test_set_row(self):
        s = CMemSlice(1)
        s.set_row(5, 1)
        assert s.read_row(5).sum() == 256
        s.set_row(5, 0)
        assert s.read_row(5).sum() == 0
        with pytest.raises(CMemError):
            s.set_row(5, 2)

    def test_shift_row_right_by_words(self):
        s = CMemSlice(1)
        bits = np.zeros(256, dtype=np.uint8)
        bits[:32] = 1  # lane group 0
        s.write_row(0, bits)
        s.shift_row(0, 1)
        out = s.read_row(0)
        assert out[:32].sum() == 0
        assert out[32:64].sum() == 32

    def test_shift_row_left(self):
        s = CMemSlice(1)
        bits = np.zeros(256, dtype=np.uint8)
        bits[32:64] = 1
        s.write_row(0, bits)
        s.shift_row(0, -1)
        assert s.read_row(0)[:32].sum() == 32

    def test_shift_zero_is_noop(self):
        s = CMemSlice(1)
        bits = np.random.default_rng(0).integers(0, 2, 256).astype(np.uint8)
        s.write_row(0, bits)
        s.shift_row(0, 0)
        assert np.array_equal(s.read_row(0), bits)

    def test_shift_out_of_range(self):
        s = CMemSlice(1)
        with pytest.raises(CMemError):
            s.shift_row(0, 8)

    def test_default_csr_mask_enables_all_lanes(self):
        assert CMemSlice(1).csr_mask == 0xFF


class TestTransposeBuffer:
    def test_byte_roundtrip(self):
        tb = TransposeBuffer()
        tb.store_byte(0, 0xA5)
        assert tb.load_byte(0) == 0xA5

    def test_address_bounds(self):
        tb = TransposeBuffer()
        with pytest.raises(CMemError):
            tb.store_byte(2048, 0)
        with pytest.raises(CMemError):
            tb.store_byte(0, 256)

    def test_vertical_mapping(self):
        """Byte address a -> bit-line a % 256, rows 8*(a//256) + bit."""
        tb = TransposeBuffer()
        tb.store_byte(5, 0b00000001)  # column 5, group 0
        assert tb.read_row(0)[5] == 1
        assert tb.read_row(1)[5] == 0
        tb.store_byte(256 + 7, 0b10000000)  # column 7, group 1
        assert tb.read_row(8 + 7)[7] == 1

    def test_sequential_bytes_land_transposed(self):
        """A plain store stream produces a transposed vector (Fig. 5)."""
        tb = TransposeBuffer()
        values = list(range(200))
        for i, v in enumerate(values):
            tb.store_byte(i, v)
        out = read_transposed(tb.array, 0, len(values), 8)
        assert out.tolist() == values

    def test_store_vector_16bit(self):
        tb = TransposeBuffer()
        tb.store_vector(0, [0x1234, 0xBEEF], n_bits=16)
        out = read_transposed(tb.array, 0, 2, 16)
        assert out.tolist() == [0x1234, 0xBEEF]

    def test_store_vector_signed_view(self):
        tb = TransposeBuffer()
        tb.store_vector(0, [-1, -128, 127], n_bits=8)
        out = read_transposed(tb.array, 0, 3, 8, signed=True)
        assert out.tolist() == [-1, -128, 127]

    def test_store_vector_bounds(self):
        tb = TransposeBuffer()
        with pytest.raises(CMemError):
            tb.store_vector(0, list(range(300)))
        with pytest.raises(CMemError):
            tb.store_vector(8, [1])
        with pytest.raises(CMemError):
            tb.store_vector(0, [1], n_bits=12)
