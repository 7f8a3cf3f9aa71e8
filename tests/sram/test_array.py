"""Tests for the bit-true SRAM array model."""

import numpy as np
import pytest

from repro.cmem.geometry import ROWS
from repro.cmem.slice import TransposeBuffer
from repro.errors import ConfigurationError, SRAMError
from repro.sram.array import SRAMArray, SRAMArrayConfig


@pytest.fixture
def array():
    return SRAMArray(SRAMArrayConfig(rows=64, cols=256))


def load(array, cells):
    """Bulk-load an array's full cell matrix."""
    cells = np.asarray(cells, dtype=np.uint8)
    if cells.shape != array._cells.shape:
        raise SRAMError(f"expected shape {array._cells.shape}, got {cells.shape}")
    array._cells[:] = cells


class TestGeometry:
    def test_capacity(self):
        array = SRAMArray(SRAMArrayConfig(rows=256, cols=256))
        cells = sum(array.read_row(row).size for row in range(256))
        assert cells // 8 == 8 * 1024

    def test_cmem_slice_capacity(self):
        """A CMem slice's 64 x 256 cells are the 2 KB slice-0 byte window."""
        slice0 = TransposeBuffer()
        cells = sum(slice0.read_row(row).size for row in range(ROWS))
        assert cells // 8 == TransposeBuffer.BYTES == 2048

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            SRAMArrayConfig(rows=0, cols=256)


class TestRowAccess:
    def test_write_read_roundtrip(self, array):
        bits = np.random.default_rng(0).integers(0, 2, 256).astype(np.uint8)
        array.write_row(3, bits)
        assert np.array_equal(array.read_row(3), bits)

    def test_read_returns_copy(self, array):
        array.write_row(0, np.ones(256, dtype=np.uint8))
        row = array.read_row(0)
        row[:] = 0
        assert array.read_row(0).sum() == 256

    def test_row_bounds(self, array):
        with pytest.raises(SRAMError):
            array.read_row(64)
        with pytest.raises(SRAMError):
            array.write_row(-1, np.zeros(256, dtype=np.uint8))

    def test_wrong_width_rejected(self, array):
        with pytest.raises(SRAMError):
            array.write_row(0, np.zeros(255, dtype=np.uint8))

    def test_non_binary_rejected(self, array):
        with pytest.raises(SRAMError):
            array.write_row(0, np.full(256, 2, dtype=np.uint8))

    def test_bit_slice_access(self, array):
        array.update_rows(5, 10, [[1, 0, 1]])
        assert array.read_row(5)[10:13].tolist() == [1, 0, 1]
        assert array.read_row(5).sum() == 2

    def test_bit_slice_bounds(self, array):
        with pytest.raises(SRAMError):
            array.update_rows(0, 254, [[1, 1, 1, 1]])

    def test_stats_count_operations(self, array):
        array.write_row(0, np.zeros(256, dtype=np.uint8))
        array.read_row(0)
        array.activate_pair(0, 1)
        assert array.stats.writes == 1
        assert array.stats.reads == 1
        assert array.stats.compute_activations == 1


class TestComputeActivation:
    def test_same_row_rejected(self, array):
        with pytest.raises(SRAMError):
            array.activate_pair(2, 2)

    def test_and_nor_of_rows(self, array):
        a = np.array([1, 1, 0, 0] * 64, dtype=np.uint8)
        b = np.array([1, 0, 1, 0] * 64, dtype=np.uint8)
        array.write_row(0, a)
        array.write_row(1, b)
        sensed = array.activate_pair(0, 1)
        assert np.array_equal(sensed.and_bits, a & b)
        assert np.array_equal(sensed.nor_bits, (1 - a) & (1 - b))

    def test_activation_is_non_destructive(self, array):
        a = np.ones(256, dtype=np.uint8)
        array.write_row(0, a)
        array.write_row(1, a)
        array.activate_pair(0, 1)
        assert np.array_equal(array.read_row(0), a)
        assert np.array_equal(array.read_row(1), a)


class TestBulk:
    def test_load_snapshot_roundtrip(self, array):
        cells = np.random.default_rng(1).integers(0, 2, (64, 256)).astype(np.uint8)
        load(array, cells)
        for row in range(64):
            assert np.array_equal(array.read_row(row), cells[row])

    def test_load_shape_checked(self, array):
        with pytest.raises(SRAMError):
            load(array, np.zeros((2, 2), dtype=np.uint8))

    def test_clear(self, array):
        array.write_row(0, np.ones(256, dtype=np.uint8))
        array.clear()
        assert array.read_row(0).sum() == 0
