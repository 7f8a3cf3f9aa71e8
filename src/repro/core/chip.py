"""The MAICC chip's geometry (Fig. 3(a)).

The paper's chip is a 16x16 mesh: row 0 and row 15 are LLC tiles (16
each = 32, one per DRAM channel), and the remaining column holds the
host CPU tile and reserved IO tiles, which leaves 15x14 = 210 compute
cores.  Every mesh size keeps that floorplan (``HOST_COLUMNS`` and
``LLC_ROWS``): the placements walk :attr:`ChipConfig.compute_region`,
and the core budgets count :attr:`ChipConfig.compute_tiles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.constants import ChipConstants
from repro.mapping.placement import Region

#: The floorplan every mesh size keeps: one host/IO column, and one LLC
#: row on each of the top and bottom edges.
HOST_COLUMNS = 1
LLC_ROWS = 2


@dataclass(frozen=True)
class ChipConfig:
    """Mesh size and per-unit physical costs (defaults: the paper's
    210-core design)."""

    mesh_width: int = 16
    mesh_height: int = 16
    constants: ChipConstants = field(default_factory=ChipConstants)

    @property
    def compute_region(self) -> Region:
        """Every tile but the LLC rows and the host column: row 0 is an
        LLC row, so the region starts at (0, 1)."""
        return Region(
            (0, 1), self.mesh_width - HOST_COLUMNS, self.mesh_height - LLC_ROWS
        )

    @property
    def compute_tiles(self) -> int:
        """The compute region's tile count."""
        return (self.mesh_width - HOST_COLUMNS) * (self.mesh_height - LLC_ROWS)

    @property
    def llc_tiles(self) -> int:
        """The LLC rows, top and bottom."""
        return LLC_ROWS * self.mesh_width
