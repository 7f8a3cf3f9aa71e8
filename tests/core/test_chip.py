"""Chip geometry."""

from repro.core.chip import ChipConfig
from repro.dram.controller import DRAMConfig
from repro.dse.spec import DesignPoint
from repro.energy.constants import ChipConstants


class TestGeometry:
    def test_210_compute_tiles(self):
        """16x16 minus two LLC rows minus the host column = 210 (Fig. 3(a))."""
        assert ChipConfig().compute_tiles == 210

    def test_32_llc_tiles_one_per_channel(self):
        """Two LLC rows of 16 tiles: one tile per DRAM channel, as the area
        model counts them."""
        llc_tiles = 2 * ChipConfig().mesh_width
        assert llc_tiles == DRAMConfig().channels == ChipConstants().num_llc_tiles == 32

    def test_mesh_size_alone_is_a_chip(self):
        """Any mesh keeps the floorplan, and the DSE mesh axis agrees."""
        assert ChipConfig(mesh_width=12, mesh_height=12).compute_tiles == 110
        assert DesignPoint("resnet18", "analytic", mesh=(12, 12)).compute_tiles == 110
