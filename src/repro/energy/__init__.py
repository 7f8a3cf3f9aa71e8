"""Area, power, and energy models of the chip a SimConfig describes (Sec. 5)."""

from repro.energy.constants import ChipConstants
from repro.energy.area import AreaBreakdown, area_breakdown
from repro.energy.power import EnergyBreakdown, EnergyModel, OpCounts

__all__ = [
    "ChipConstants",
    "AreaBreakdown",
    "area_breakdown",
    "EnergyBreakdown",
    "EnergyModel",
    "OpCounts",
]
