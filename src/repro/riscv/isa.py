"""Instruction definitions for the RV32IMA subset plus the CMem extension.

Each opcode carries an :class:`OpSpec` describing which functional unit
executes it, its nominal execution latency, and its register usage — the
information the scoreboard needs.  CMem instruction latencies depend on the
operand bit width ``n`` (Table 2) and are resolved per instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Dict, List, Optional, Tuple

from repro.cmem.isa import CMemOp, cmem_op_cycles
from repro.errors import DecodeError


@unique
class FunctionalUnit(Enum):
    ALU = "alu"
    MULDIV = "muldiv"
    MEM = "mem"
    BRANCH = "branch"
    CMEM = "cmem"
    SYS = "sys"


@dataclass(frozen=True)
class OpSpec:
    """Static properties of one opcode."""

    name: str
    unit: FunctionalUnit
    latency: int
    writes_rd: bool = False
    reads_rs1: bool = False
    reads_rs2: bool = False
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_atomic: bool = False
    cmem_op: Optional[CMemOp] = None


def _alu(name: str, *, rs2: bool) -> OpSpec:
    return OpSpec(name, FunctionalUnit.ALU, 1, writes_rd=True, reads_rs1=True, reads_rs2=rs2)


_SPECS = [
    # RV32I register-register
    _alu("add", rs2=True), _alu("sub", rs2=True), _alu("and", rs2=True),
    _alu("or", rs2=True), _alu("xor", rs2=True), _alu("sll", rs2=True),
    _alu("srl", rs2=True), _alu("sra", rs2=True), _alu("slt", rs2=True),
    _alu("sltu", rs2=True),
    # RV32I register-immediate
    _alu("addi", rs2=False), _alu("andi", rs2=False), _alu("ori", rs2=False),
    _alu("xori", rs2=False), _alu("slli", rs2=False), _alu("srli", rs2=False),
    _alu("srai", rs2=False), _alu("slti", rs2=False), _alu("sltiu", rs2=False),
    OpSpec("lui", FunctionalUnit.ALU, 1, writes_rd=True),
    OpSpec("auipc", FunctionalUnit.ALU, 1, writes_rd=True),
    OpSpec("li", FunctionalUnit.ALU, 1, writes_rd=True),
    OpSpec("mv", FunctionalUnit.ALU, 1, writes_rd=True, reads_rs1=True),
    OpSpec("nop", FunctionalUnit.ALU, 1),
    # RV32M — mul 3 cycles, div/rem multi-cycle (the paper's motivating
    # example of a scoreboard-managed long-latency instruction).
    OpSpec("mul", FunctionalUnit.MULDIV, 3, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("mulh", FunctionalUnit.MULDIV, 3, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("mulhu", FunctionalUnit.MULDIV, 3, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("mulhsu", FunctionalUnit.MULDIV, 3, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("div", FunctionalUnit.MULDIV, 16, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("divu", FunctionalUnit.MULDIV, 16, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("rem", FunctionalUnit.MULDIV, 16, writes_rd=True, reads_rs1=True, reads_rs2=True),
    OpSpec("remu", FunctionalUnit.MULDIV, 16, writes_rd=True, reads_rs1=True, reads_rs2=True),
    # Loads / stores (latency is the local hit time; remote accesses add
    # NoC round-trip time at execution).
    OpSpec("lw", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True, is_load=True),
    OpSpec("lh", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True, is_load=True),
    OpSpec("lhu", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True, is_load=True),
    OpSpec("lb", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True, is_load=True),
    OpSpec("lbu", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True, is_load=True),
    OpSpec("sw", FunctionalUnit.MEM, 1, reads_rs1=True, reads_rs2=True, is_store=True),
    OpSpec("sh", FunctionalUnit.MEM, 1, reads_rs1=True, reads_rs2=True, is_store=True),
    OpSpec("sb", FunctionalUnit.MEM, 1, reads_rs1=True, reads_rs2=True, is_store=True),
    # RV32A (used for the software locks of Algorithm 1)
    OpSpec("amoadd.w", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True,
           reads_rs2=True, is_load=True, is_store=True, is_atomic=True),
    OpSpec("amoswap.w", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True,
           reads_rs2=True, is_load=True, is_store=True, is_atomic=True),
    OpSpec("lr.w", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True,
           is_load=True, is_atomic=True),
    OpSpec("sc.w", FunctionalUnit.MEM, 2, writes_rd=True, reads_rs1=True,
           reads_rs2=True, is_store=True, is_atomic=True),
    # Control flow (resolved in EX; taken branches pay the flush penalty)
    OpSpec("beq", FunctionalUnit.BRANCH, 1, reads_rs1=True, reads_rs2=True, is_branch=True),
    OpSpec("bne", FunctionalUnit.BRANCH, 1, reads_rs1=True, reads_rs2=True, is_branch=True),
    OpSpec("blt", FunctionalUnit.BRANCH, 1, reads_rs1=True, reads_rs2=True, is_branch=True),
    OpSpec("bge", FunctionalUnit.BRANCH, 1, reads_rs1=True, reads_rs2=True, is_branch=True),
    OpSpec("bltu", FunctionalUnit.BRANCH, 1, reads_rs1=True, reads_rs2=True, is_branch=True),
    OpSpec("bgeu", FunctionalUnit.BRANCH, 1, reads_rs1=True, reads_rs2=True, is_branch=True),
    OpSpec("jal", FunctionalUnit.BRANCH, 1, writes_rd=True, is_branch=True),
    OpSpec("jalr", FunctionalUnit.BRANCH, 1, writes_rd=True, reads_rs1=True, is_branch=True),
    OpSpec("j", FunctionalUnit.BRANCH, 1, is_branch=True),
    OpSpec("halt", FunctionalUnit.SYS, 1),
    OpSpec("ecall", FunctionalUnit.SYS, 1),
    # CMem extension (Table 2).  Latencies resolved per-instruction from n.
    OpSpec("mac.c", FunctionalUnit.CMEM, 0, writes_rd=True, cmem_op=CMemOp.MAC_C),
    OpSpec("macu.c", FunctionalUnit.CMEM, 0, writes_rd=True, cmem_op=CMemOp.MAC_C),
    OpSpec("move.c", FunctionalUnit.CMEM, 0, cmem_op=CMemOp.MOVE_C),
    OpSpec("setrow.c", FunctionalUnit.CMEM, 0, cmem_op=CMemOp.SETROW_C),
    OpSpec("shiftrow.c", FunctionalUnit.CMEM, 0, cmem_op=CMemOp.SHIFTROW_C),
    OpSpec("loadrow.rc", FunctionalUnit.CMEM, 0, reads_rs1=True, cmem_op=CMemOp.LOADROW_RC),
    OpSpec("storerow.rc", FunctionalUnit.CMEM, 0, reads_rs1=True, cmem_op=CMemOp.STOREROW_RC),
    OpSpec("setcsr.c", FunctionalUnit.CMEM, 0, cmem_op=CMemOp.SETROW_C),
]

OPCODES: Dict[str, OpSpec] = {spec.name: spec for spec in _SPECS}


@dataclass
class Instruction:
    """One decoded instruction.

    ``cm`` holds CMem-extension operands: slice/row indices and the bit
    width ``n``.  ``target`` is a resolved instruction index for branches.
    """

    opcode: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    cm: Dict[str, int] = field(default_factory=dict)
    label: Optional[str] = None
    source_line: int = -1
    # Free-form cost-attribution tag set by kernel generators (e.g.
    # "compute", "send_ifmap", "aux") and reported by PipelineStats.
    category: str = ""

    @property
    def spec(self) -> OpSpec:
        try:
            return OPCODES[self.opcode]
        except KeyError:
            raise DecodeError(f"unknown opcode {self.opcode!r}") from None

    def latency(self) -> int:
        """Execution latency in cycles, resolving CMem widths (Table 2)."""
        spec = self.spec
        if spec.cmem_op is not None:
            if self.opcode == "setcsr.c":
                return 1
            return cmem_op_cycles(spec.cmem_op, self.cm.get("n", 8))
        return spec.latency

    def __str__(self) -> str:
        parts = [self.opcode]
        if self.rd is not None:
            parts.append(f"rd=x{self.rd}")
        if self.rs1 is not None:
            parts.append(f"rs1=x{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"rs2=x{self.rs2}")
        if self.imm:
            parts.append(f"imm={self.imm}")
        if self.cm:
            parts.append(f"cm={self.cm}")
        return " ".join(parts)


# -- an instruction's register and CMem-slice footprint ---------------------------


def instr_reads(instr: Instruction) -> List[int]:
    """Architectural registers this instruction reads (x0 excluded)."""
    try:
        spec = instr.spec
    except DecodeError:
        return []
    regs = []
    if spec.reads_rs1 and instr.rs1:
        regs.append(instr.rs1)
    if spec.reads_rs2 and instr.rs2:
        regs.append(instr.rs2)
    return regs


def instr_write(instr: Instruction) -> Optional[int]:
    """The register this instruction writes, if any (x0 excluded)."""
    try:
        spec = instr.spec
    except DecodeError:
        return None
    if spec.writes_rd and instr.rd:
        return instr.rd
    return None


def instr_slices(instr: Instruction) -> Tuple[int, ...]:
    """Target slice indices of a CMem instruction, known at decode."""
    cm = instr.cm
    if instr.opcode == "move.c":
        return (cm["src_slice"], cm["dst_slice"])
    return (cm.get("slice", 0),)
