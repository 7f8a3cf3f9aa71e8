"""Off-chip memory system: the striped multi-channel DRAM.

A DRAMsim3 substitute: bank-state timing (activate / column access /
precharge) and per-access energy for the 32 channels behind the mesh's
two LLC rows (Fig. 3(a)).  The LLC tiles themselves are not modeled as
caches; the energy model bills LLC accesses at
``ChipConstants.llc_access_pj``.
"""

from repro.dram.controller import DRAMConfig, DRAMController, DRAMStats

__all__ = [
    "DRAMConfig",
    "DRAMController",
    "DRAMStats",
]
