"""The MAICC chip's geometry (Fig. 3(a)).

The paper's chip is a 16x16 mesh: row 0 and row 15 are LLC tiles (16
each = 32, one per DRAM channel), and the remaining column holds the
host CPU tile and reserved IO tiles, which leaves 15x14 = 210 compute
cores.  Every mesh size keeps that floorplan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.constants import ChipConstants


@dataclass(frozen=True)
class ChipConfig:
    """Mesh size and per-unit physical costs (defaults: the paper's
    210-core design)."""

    mesh_width: int = 16
    mesh_height: int = 16
    constants: ChipConstants = field(default_factory=ChipConstants)

    @property
    def compute_tiles(self) -> int:
        """Every tile but the two LLC rows and the host column."""
        return (self.mesh_width - 1) * (self.mesh_height - 2)

    @property
    def llc_tiles(self) -> int:
        """The two LLC rows, top and bottom."""
        return 2 * self.mesh_width
