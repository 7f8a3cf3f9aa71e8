"""Per-operation energy tally of the CMem SRAM arrays.

The op energies are the chip's :class:`~repro.energy.constants.ChipConstants`
(the paper's SPICE/Design-Compiler measurements of Sec. 5, already scaled
to 28 nm): vertical write into slice 0, Move.C (inter-slice vector move),
MAC.C (one full vector MAC) and remote row load/store (LoadRow.RC).
"""

from __future__ import annotations

from typing import Dict

from repro.energy.constants import ChipConstants

_COSTS = ChipConstants()
#: Picojoules per CMem operation.  Plain single-row reads and writes are
#: estimated from the vertical-write figure: they touch the same
#: bit-lines once.
OP_ENERGY_PJ = {
    "vertical_write": _COSTS.vertical_write_pj,
    "move": _COSTS.move_pj,
    "mac": _COSTS.mac_pj,
    "remote_row": _COSTS.remote_row_pj,
    "read_row": _COSTS.vertical_write_pj,
    "write_row": _COSTS.vertical_write_pj,
}


class EnergyAccumulator:
    """Mutable tally of CMem energy, in picojoules."""

    def __init__(self) -> None:
        self.total_pj = 0.0
        self.by_op: Dict[str, float] = {}

    def charge(self, op: str, count: int = 1) -> None:
        amount = OP_ENERGY_PJ[op] * count
        self.total_pj += amount
        self.by_op[op] = self.by_op.get(op, 0.0) + amount
