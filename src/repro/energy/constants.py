"""Physical constants of the MAICC chip.

Sources, all from the paper's Sec. 5 (System Model) unless noted:

* RISC-V core (Verilog RTL @ 28 nm, 1 GHz): 0.014 mm^2, 8 mW.
* SRAM/CMem (SPICE @ 40 nm, 1.1 V, scaled to 28 nm): vertical write
  4.75 pJ, Move.C 52.75 pJ, MAC.C 28.25 pJ, remote row 53.01 pJ; slice 0
  area 0.014 mm^2, slices 1-7 area 0.023 mm^2 each (40 nm figures —
  area scales by (28/40)^2).
* NoC (dsent): 2.61 mm^2, 2.20 W static, 5.4 pJ per flit per hop.
* Whole chip: 28 mm^2 at 210 cores.

Leakage/background terms (CMem retention, DRAM background) are
calibration parameters documented as such: the paper reports only the
resulting breakdown (Fig. 10: energy 71% DRAM / 11% CMem / 11% NoC; area
65% CMem / 11% core / 10% on-chip memory / 9% NoC / 5% LLC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.mapping.capacity import CapacityModel

#: The CMem geometry the slice areas and ``cmem_leakage_w_per_node`` are
#: quoted for: the paper's node, 7 compute slices of 64 rows.  Slice area
#: scales with the row count, and node leakage with the node's CMem area.
REF_SLICES = 7
REF_ROWS = 64


@dataclass(frozen=True)
class ChipConstants:
    """The chip's physical costs, per unit.

    The counts they multiply (cores, LLC tiles, CMem slices and rows)
    are the billed chip's own: :func:`repro.energy.area.area_breakdown`
    and :class:`repro.energy.power.EnergyModel` read them from the
    :class:`~repro.sim.config.SimConfig` they are given.
    """

    clock_ghz: float = 1.0

    # RISC-V core (28 nm).
    core_area_mm2: float = 0.014
    core_power_w: float = 0.008

    # Local memories per node: 4 KB icache + 4 KB dmem.
    local_mem_area_mm2: float = 0.0133
    local_mem_power_w: float = 0.002

    # CMem slice areas of a REF_ROWS-row slice (40 nm figures scaled to
    # 28 nm).
    slice0_area_mm2_40nm: float = 0.014
    compute_slice_area_mm2_40nm: float = 0.023
    area_scale_40_to_28: float = (28.0 / 40.0) ** 2

    # CMem per-op dynamic energies (pJ), already scaled to 28 nm.
    vertical_write_pj: float = 4.75
    move_pj: float = 52.75
    mac_pj: float = 28.25
    remote_row_pj: float = 53.01
    # CMem retention/leakage of a reference-geometry node (calibration
    # constant).
    cmem_leakage_w_per_node: float = 0.012

    # NoC.
    noc_area_mm2: float = 2.61
    noc_static_w: float = 2.20
    noc_flit_hop_pj: float = 5.4

    # LLC tiles.
    llc_tile_area_mm2: float = 0.04375
    llc_access_pj: float = 20.0
    llc_static_w_per_tile: float = 0.003

    # Many-core DRAM: access energy, and the background power of all 32
    # channels (the DSE scales it with the channel count).  Calibrated so
    # the ResNet18 run reproduces the ~71% DRAM share of Fig. 10.
    dram_access_pj_per_byte: float = 40.0
    dram_background_w: float = 17.5

    def _cmem_area_mm2_40nm(self, capacity: CapacityModel) -> float:
        row_scale = capacity.rows / REF_ROWS
        return (
            self.slice0_area_mm2_40nm * row_scale
            + capacity.compute_slices
            * (self.compute_slice_area_mm2_40nm * row_scale)
        )

    def cmem_area_mm2_per_node(self, capacity: CapacityModel) -> float:
        """One node's CMem area at ``capacity``'s slice count and rows."""
        return self._cmem_area_mm2_40nm(capacity) * self.area_scale_40_to_28

    def cmem_leakage_w(self, capacity: CapacityModel) -> float:
        """One node's CMem leakage, in proportion to its CMem area.

        At the reference geometry the factor is exactly 1.0, so this is
        ``cmem_leakage_w_per_node`` bit for bit.
        """
        ref_area = (
            self.slice0_area_mm2_40nm
            + REF_SLICES * self.compute_slice_area_mm2_40nm
        )
        return self.cmem_leakage_w_per_node * (
            self._cmem_area_mm2_40nm(capacity) / ref_area
        )

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / (self.clock_ghz * 1e9)
