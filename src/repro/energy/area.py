"""Chip area model (Fig. 10, left)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    from repro.sim.config import SimConfig


@dataclass(frozen=True)
class AreaBreakdown:
    """Area per block in mm^2."""

    cmem: float
    core: float
    local_mem: float
    noc: float
    llc: float

    @property
    def total(self) -> float:
        return self.cmem + self.core + self.local_mem + self.noc + self.llc

    def fractions(self) -> Dict[str, float]:
        total = self.total
        return {
            "cmem": self.cmem / total,
            "core": self.core / total,
            "local_mem": self.local_mem / total,
            "noc": self.noc / total,
            "llc": self.llc / total,
        }


def area_breakdown(config: SimConfig) -> AreaBreakdown:
    """Area of the chip ``config`` describes: its compute tiles, LLC
    tiles and CMem geometry, each at its per-unit area."""
    c = config.chip.constants
    cores = config.chip.compute_tiles
    return AreaBreakdown(
        cmem=cores * c.cmem_area_mm2_per_node(config.capacity),
        core=cores * c.core_area_mm2,
        local_mem=cores * c.local_mem_area_mm2,
        noc=c.noc_area_mm2,
        llc=config.chip.llc_tiles * c.llc_tile_area_mm2,
    )


def node_area_mm2(config: SimConfig) -> float:
    """One MAICC node: core + local memories + CMem (Table 4 row)."""
    c = config.chip.constants
    return (
        c.core_area_mm2
        + c.local_mem_area_mm2
        + c.cmem_area_mm2_per_node(config.capacity)
    )
