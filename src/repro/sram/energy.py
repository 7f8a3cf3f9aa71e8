"""Per-operation energy model of the CMem SRAM arrays.

The four op energies are the paper's SPICE/Design-Compiler measurements
(Sec. 5, System Model), already scaled to 28 nm, and default to the
chip-level energy model's own :class:`~repro.energy.constants.ChipConstants`:
vertical write into slice 0, Move.C (inter-slice vector move), MAC.C (one
full vector MAC) and remote row load/store (LoadRow.RC).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.constants import ChipConstants


@dataclass(frozen=True)
class SRAMEnergy:
    """Energy per CMem operation in picojoules (paper Sec. 5)."""

    vertical_write_pj: float = ChipConstants.vertical_write_pj
    move_pj: float = ChipConstants.move_pj
    mac_pj: float = ChipConstants.mac_pj
    remote_row_pj: float = ChipConstants.remote_row_pj
    # Plain array accesses, estimated from the vertical-write figure: a
    # single-row read/write touches the same bit-lines once.
    read_row_pj: float = ChipConstants.vertical_write_pj
    write_row_pj: float = ChipConstants.vertical_write_pj


@dataclass
class EnergyAccumulator:
    """Mutable tally of CMem energy, in picojoules."""

    energy: SRAMEnergy = field(default_factory=SRAMEnergy)
    total_pj: float = 0.0
    by_op: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Built once: charge() sits on the per-MAC hot path.
        self._per_op = {
            "vertical_write": self.energy.vertical_write_pj,
            "move": self.energy.move_pj,
            "mac": self.energy.mac_pj,
            "remote_row": self.energy.remote_row_pj,
            "read_row": self.energy.read_row_pj,
            "write_row": self.energy.write_row_pj,
        }

    def charge(self, op: str, count: int = 1) -> None:
        amount = self._per_op[op] * count
        self.total_pj += amount
        self.by_op[op] = self.by_op.get(op, 0.0) + amount
