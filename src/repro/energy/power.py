"""Energy accounting: operation counts + static power -> breakdown.

The simulator tallies an :class:`OpCounts`; :class:`EnergyModel` turns it
plus the run time into the Fig. 10 energy breakdown and the Table 7
average power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    from repro.sim.config import SimConfig


@dataclass
class OpCounts:
    """Chip-wide dynamic operation tallies for one run."""

    macs: int = 0              # MAC.C instructions
    moves: int = 0             # Move.C instructions
    vertical_writes: int = 0   # bytes written through slice 0
    remote_rows: int = 0       # LoadRow.RC / StoreRow.RC transfers
    noc_flit_hops: int = 0
    llc_accesses: int = 0
    dram_bytes: int = 0
    core_active_cycles: int = 0  # summed over all active cores

    def merge(self, other: "OpCounts") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per block in joules."""

    dram: float
    cmem: float
    noc: float
    core: float
    llc: float

    @property
    def total(self) -> float:
        return self.dram + self.cmem + self.noc + self.core + self.llc

    def fractions(self) -> Dict[str, float]:
        total = self.total
        return {
            "dram": self.dram / total,
            "cmem": self.cmem / total,
            "noc": self.noc / total,
            "core": self.core / total,
            "llc": self.llc / total,
        }


class EnergyModel:
    """Combines dynamic op energies with the static power of the chip
    ``config`` describes (its compute tiles, LLC tiles and CMem geometry)
    over the run time."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config

    def breakdown(self, ops: OpCounts, seconds: float) -> EnergyBreakdown:
        chip = self.config.chip
        c = chip.constants
        cores = chip.compute_tiles
        pj = 1e-12
        cmem_dynamic = (
            ops.macs * c.mac_pj
            + ops.moves * c.move_pj
            + ops.vertical_writes * c.vertical_write_pj
            + ops.remote_rows * c.remote_row_pj
        ) * pj
        cmem_static = cores * c.cmem_leakage_w(self.config.capacity) * seconds
        noc = ops.noc_flit_hops * c.noc_flit_hop_pj * pj + c.noc_static_w * seconds
        core = (
            ops.core_active_cycles * c.core_power_w * c.cycle_seconds
            + cores * c.local_mem_power_w * seconds
        )
        llc = (
            ops.llc_accesses * c.llc_access_pj * pj
            + chip.llc_tiles * c.llc_static_w_per_tile * seconds
        )
        dram = (
            ops.dram_bytes * c.dram_access_pj_per_byte * pj
            + c.dram_background_w * seconds
        )
        return EnergyBreakdown(dram=dram, cmem=cmem_dynamic + cmem_static,
                               noc=noc, core=core, llc=llc)

    def average_power_w(self, ops: OpCounts, seconds: float) -> float:
        if seconds <= 0:
            raise ValueError("run time must be positive")
        return self.breakdown(ops, seconds).total / seconds
