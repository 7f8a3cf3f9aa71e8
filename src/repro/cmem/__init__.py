"""The computing memory (CMem) — the paper's core contribution (Sec. 3.2).

A CMem is eight 2 KB SRAM slices of 64 rows x 256 bit-lines
(:mod:`repro.cmem.geometry` defines these numbers once).  Slice 0 uses
8T cells, is byte-addressable *vertically* (consecutive bytes land in
adjacent bit-lines so a plain ``store`` stream produces transposed vectors)
and serves as the input/transpose buffer.  Slices 1-7 are compute slices:
row-indexed only, each with an adder tree and shift-accumulate register
implementing the hardware vector-MAC primitive of Fig. 4(b).
"""

from repro.cmem.adder_tree import AdderTree, ShiftAccumulator
from repro.cmem.cmem import CMem, CMemStats
from repro.cmem.slice import CMemSlice, TransposeBuffer
from repro.cmem.isa import (
    CMemOp,
    MAC_C,
    MOVE_C,
    SETROW_C,
    SHIFTROW_C,
    LOADROW_RC,
    STOREROW_RC,
    cmem_op_cycles,
)

__all__ = [
    "AdderTree",
    "ShiftAccumulator",
    "CMem",
    "CMemStats",
    "CMemSlice",
    "TransposeBuffer",
    "CMemOp",
    "MAC_C",
    "MOVE_C",
    "SETROW_C",
    "SHIFTROW_C",
    "LOADROW_RC",
    "STOREROW_RC",
    "cmem_op_cycles",
]
