"""Off-chip memory system: the striped multi-channel DRAM.

A DRAMsim3 substitute: bank-state timing (activate / column access /
precharge) for the 32 channels behind the mesh's two LLC rows (Fig.
3(a)).  Energy is the energy model's: it bills DRAM per byte at
``ChipConstants.dram_access_pj_per_byte`` plus ``dram_background_w``, and
LLC accesses at ``ChipConstants.llc_access_pj``; the LLC tiles
themselves are not modeled as caches.
"""

from repro.dram.controller import DRAMConfig, DRAMController, DRAMStats

__all__ = [
    "DRAMConfig",
    "DRAMController",
    "DRAMStats",
]
