"""RV32 integer register file and register-name resolution."""

from __future__ import annotations

from typing import Dict, List

from repro.errors import DecodeError
from repro.utils.bitops import sign_extend

NUM_REGS = 32

# ABI register names in index order.
ABI_NAMES: List[str] = (
    ["zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1"]
    + [f"a{i}" for i in range(8)]
    + [f"s{i}" for i in range(2, 12)]
    + [f"t{i}" for i in range(3, 7)]
)

REG_NAMES: Dict[str, int] = {f"x{i}": i for i in range(NUM_REGS)}
REG_NAMES.update({name: i for i, name in enumerate(ABI_NAMES)})
REG_NAMES["fp"] = 8  # frame-pointer alias for s0


def reg_index(name: str) -> int:
    """Resolve a register name (x-form or ABI) to its index."""
    try:
        return REG_NAMES[name]
    except KeyError:
        raise DecodeError(f"unknown register {name!r}") from None


def reg_name(index: int) -> str:
    """Canonical (ABI) name of a register index."""
    if not 0 <= index < NUM_REGS:
        raise DecodeError(f"register index {index} out of range")
    return ABI_NAMES[index]


_MASK32 = 0xFFFFFFFF


class RegisterFile:
    """32 x 32-bit registers with x0 hard-wired to zero.

    Values are stored as unsigned 32-bit patterns; :meth:`read_signed`
    provides the two's-complement view.
    """

    def __init__(self) -> None:
        self._values = [0] * NUM_REGS

    def read(self, index: int) -> int:
        return self._values[index]

    def read_signed(self, index: int) -> int:
        return sign_extend(self._values[index], 32)

    def write(self, index: int, value: int) -> None:
        if index == 0:
            return
        self._values[index] = value & _MASK32
