"""The CMem ISA extension (Table 2) and its cycle-cost model.

========== ======= ====================================================
Operation  Cycles  Meaning
========== ======= ====================================================
MAC.C      n^2     MAC of two n-bit vectors in one slice
Move.C     n       Move an n-bit vector between slices
SetRow.C   1       Set one row to all zeros or all ones
ShiftRow.C 2       Shift one row in 32-bit granularity (read + write)
LoadRow.RC 1       Remote-load one row from another node (plus NoC time)
StoreRow.RC 1      Remote-store one row to another node (plus NoC time)
========== ======= ====================================================

The 1-cycle costs of the remote row operations are the *CMem occupancy*;
network latency is charged by the NoC model.  Row-level atomicity is
guaranteed in hardware (Sec. 3.3); vector-level atomicity is a software
lock, which the kernel code implements with the ``p``/``nextp`` flags of
Algorithm 1.
"""

from __future__ import annotations

from enum import Enum, unique

from repro.errors import CMemError


@unique
class CMemOp(Enum):
    """The six extended operations of Table 2."""

    MAC_C = "MAC.C"
    MOVE_C = "Move.C"
    SETROW_C = "SetRow.C"
    SHIFTROW_C = "ShiftRow.C"
    LOADROW_RC = "LoadRow.RC"
    STOREROW_RC = "StoreRow.RC"


# Convenient module-level aliases.
MAC_C = CMemOp.MAC_C
MOVE_C = CMemOp.MOVE_C
SETROW_C = CMemOp.SETROW_C
SHIFTROW_C = CMemOp.SHIFTROW_C
LOADROW_RC = CMemOp.LOADROW_RC
STOREROW_RC = CMemOp.STOREROW_RC


# Operand widths are bounded by the 32-bit word granularity of a CMem row
# (ShiftRow.C aligns in 32-bit steps; a wider vector would straddle words).
MAX_OPERAND_BITS = 32


def cmem_op_cycles(op: CMemOp, n_bits: int = 8) -> int:
    """Cycle cost of one CMem operation per Table 2."""
    if n_bits < 1:
        raise CMemError(f"n_bits must be positive, got {n_bits}")
    if n_bits > MAX_OPERAND_BITS:
        raise CMemError(
            f"n_bits {n_bits} exceeds the {MAX_OPERAND_BITS}-bit word "
            "granularity of a CMem row"
        )
    if op is CMemOp.MAC_C:
        return n_bits * n_bits
    if op is CMemOp.MOVE_C:
        return n_bits
    if op is CMemOp.SETROW_C:
        return 1
    if op is CMemOp.SHIFTROW_C:
        return 2
    if op in (CMemOp.LOADROW_RC, CMemOp.STOREROW_RC):
        return 1
    raise CMemError(f"unknown CMem op {op}")
