"""Chip geometry."""

from dataclasses import replace

import pytest

from repro.core.chip import ChipConfig
from repro.dram.controller import DRAMConfig
from repro.dse.spec import DesignPoint
from repro.energy.area import area_breakdown
from repro.energy.constants import ChipConstants
from repro.errors import ConfigurationError
from repro.nn.workloads import resnet18_spec
from repro.sim import SimConfig, simulate


class TestGeometry:
    def test_210_compute_tiles(self):
        """16x16 minus two LLC rows minus the host column = 210 (Fig. 3(a))."""
        assert ChipConfig().compute_tiles == 210

    def test_32_llc_tiles_one_per_channel(self):
        """Two LLC rows of 16 tiles: one tile per DRAM channel, as the area
        model counts them."""
        assert ChipConfig().llc_tiles == DRAMConfig().channels == 32
        assert area_breakdown(SimConfig()).llc == 32 * ChipConstants().llc_tile_area_mm2

    def test_mesh_size_alone_is_a_chip(self):
        """Any mesh keeps the floorplan, and the DSE mesh axis agrees."""
        assert ChipConfig(mesh_width=12, mesh_height=12).compute_tiles == 110
        assert DesignPoint("resnet18", "analytic", mesh=(12, 12)).compute_tiles == 110

    def test_mesh_size_alone_simulates(self):
        """The mapper's array follows the chip: two cores short of its
        compute tiles, so a smaller mesh maps ResNet18 inside its region."""
        config = SimConfig(chip=ChipConfig(mesh_width=12, mesh_height=12))
        assert config.array_size == 108
        report = simulate(resnet18_spec(), backend="analytic", config=config)
        assert report.total_cycles > 0

    def test_array_larger_than_the_chip_is_rejected_where_it_is_built(self):
        """Replacing the chip of a built config keeps the old chip's array;
        the config rejects it, naming the fix, instead of the mapper
        failing later with PLAN602."""
        small = ChipConfig(mesh_width=12, mesh_height=12)
        with pytest.raises(ConfigurationError, match="leave array_size unset"):
            replace(SimConfig(), chip=small)
        with pytest.raises(ConfigurationError, match="110 compute tiles"):
            SimConfig(chip=small, array_size=111)
        assert SimConfig(chip=small, array_size=110).array_size == 110
