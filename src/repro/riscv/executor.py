"""Functional (architectural) semantics of the simulated ISA.

The pipeline executes instructions in program order, so functional state is
always sequentially consistent; the scoreboard only affects *timing*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cmem.cmem import CMem
from repro.cmem.geometry import COLS, FULL_CSR_MASK
from repro.errors import DecodeError
from repro.riscv.isa import Instruction
from repro.riscv.memory import AddressRegion, MemoryMap, NodeMemory
from repro.riscv.registers import RegisterFile
from repro.utils.bitops import sign_extend

_MASK32 = 0xFFFFFFFF


@dataclass
class ExecResult:
    """Timing-relevant facts about one executed instruction."""

    next_pc: int
    branch_taken: bool = False
    mem_region: Optional[AddressRegion] = None
    halted: bool = False
    cmem_slices: tuple = ()


class Executor:
    """Executes instructions against a register file, memory, and CMem."""

    def __init__(self, regs: RegisterFile, memory: NodeMemory, cmem: Optional[CMem]) -> None:
        self.regs = regs
        self.memory = memory
        self.cmem = cmem
        # LR/SC reservation (single-core granularity is sufficient here).
        self._reservation: Optional[int] = None

    # -- helpers ----------------------------------------------------------------

    def _rs1(self, instr: Instruction) -> int:
        return self.regs.read(instr.rs1) if instr.rs1 is not None else 0

    def _rs2(self, instr: Instruction) -> int:
        return self.regs.read(instr.rs2) if instr.rs2 is not None else 0

    def _require_cmem(self) -> CMem:
        if self.cmem is None:
            raise DecodeError("CMem instruction on a core without a CMem")
        return self.cmem

    # -- main dispatch -------------------------------------------------------------

    def execute(self, instr: Instruction, pc: int) -> ExecResult:
        opcode = instr.opcode
        handler = getattr(self, f"_op_{opcode.replace('.', '_')}", None)
        if handler is None:
            raise DecodeError(f"no functional semantics for {opcode!r}")
        return handler(instr, pc)

    # -- ALU --------------------------------------------------------------------

    def _write_alu(self, instr: Instruction, value: int, pc: int) -> ExecResult:
        self.regs.write(instr.rd, value & _MASK32)
        return ExecResult(next_pc=pc + 1)

    def _op_add(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) + self._rs2(i), pc)

    def _op_sub(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) - self._rs2(i), pc)

    def _op_and(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) & self._rs2(i), pc)

    def _op_or(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) | self._rs2(i), pc)

    def _op_xor(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) ^ self._rs2(i), pc)

    def _op_sll(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) << (self._rs2(i) & 31), pc)

    def _op_srl(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, (self._rs1(i) & _MASK32) >> (self._rs2(i) & 31), pc)

    def _op_sra(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, sign_extend(self._rs1(i), 32) >> (self._rs2(i) & 31), pc)

    def _op_slt(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        return self._write_alu(i, int(a < b), pc)

    def _op_sltu(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, int((self._rs1(i) & _MASK32) < (self._rs2(i) & _MASK32)), pc)

    def _op_addi(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) + i.imm, pc)

    def _op_andi(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) & (i.imm & _MASK32), pc)

    def _op_ori(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) | (i.imm & _MASK32), pc)

    def _op_xori(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) ^ (i.imm & _MASK32), pc)

    def _op_slli(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i) << (i.imm & 31), pc)

    def _op_srli(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, (self._rs1(i) & _MASK32) >> (i.imm & 31), pc)

    def _op_srai(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, sign_extend(self._rs1(i), 32) >> (i.imm & 31), pc)

    def _op_slti(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, int(sign_extend(self._rs1(i), 32) < i.imm), pc)

    def _op_sltiu(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, int((self._rs1(i) & _MASK32) < (i.imm & _MASK32)), pc)

    def _op_lui(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, (i.imm & 0xFFFFF) << 12, pc)

    def _op_auipc(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, pc + ((i.imm & 0xFFFFF) << 12), pc)

    def _op_li(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, i.imm, pc)

    def _op_mv(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, self._rs1(i), pc)

    def _op_nop(self, i: Instruction, pc: int) -> ExecResult:
        return ExecResult(next_pc=pc + 1)

    # -- M extension ----------------------------------------------------------------

    def _op_mul(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        return self._write_alu(i, a * b, pc)

    def _op_mulh(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        return self._write_alu(i, (a * b) >> 32, pc)

    def _op_mulhu(self, i: Instruction, pc: int) -> ExecResult:
        return self._write_alu(i, ((self._rs1(i) & _MASK32) * (self._rs2(i) & _MASK32)) >> 32, pc)

    def _op_mulhsu(self, i: Instruction, pc: int) -> ExecResult:
        a = sign_extend(self._rs1(i), 32)
        return self._write_alu(i, (a * (self._rs2(i) & _MASK32)) >> 32, pc)

    def _op_div(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        if b == 0:
            return self._write_alu(i, -1, pc)
        q = abs(a) // abs(b)
        return self._write_alu(i, -q if (a < 0) != (b < 0) else q, pc)

    def _op_divu(self, i: Instruction, pc: int) -> ExecResult:
        a, b = self._rs1(i) & _MASK32, self._rs2(i) & _MASK32
        return self._write_alu(i, _MASK32 if b == 0 else a // b, pc)

    def _op_rem(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        if b == 0:
            return self._write_alu(i, a, pc)
        r = abs(a) % abs(b)
        return self._write_alu(i, -r if a < 0 else r, pc)

    def _op_remu(self, i: Instruction, pc: int) -> ExecResult:
        a, b = self._rs1(i) & _MASK32, self._rs2(i) & _MASK32
        return self._write_alu(i, a if b == 0 else a % b, pc)

    # -- memory -----------------------------------------------------------------------

    def _mem_result(self, addr: int, pc: int) -> ExecResult:
        return ExecResult(next_pc=pc + 1, mem_region=MemoryMap.region_of(addr))

    def _op_lw(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.regs.write(i.rd, self.memory.load(addr, 4))
        return self._mem_result(addr, pc)

    def _op_lh(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        value = sign_extend(self.memory.load(addr, 2), 16)
        self.regs.write(i.rd, value & _MASK32)
        return self._mem_result(addr, pc)

    def _op_lhu(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.regs.write(i.rd, self.memory.load(addr, 2))
        return self._mem_result(addr, pc)

    def _op_lb(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        value = sign_extend(self.memory.load(addr, 1), 8)
        self.regs.write(i.rd, value & _MASK32)
        return self._mem_result(addr, pc)

    def _op_lbu(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.regs.write(i.rd, self.memory.load(addr, 1))
        return self._mem_result(addr, pc)

    def _op_sw(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.memory.store(addr, 4, self._rs2(i))
        return self._mem_result(addr, pc)

    def _op_sh(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.memory.store(addr, 2, self._rs2(i))
        return self._mem_result(addr, pc)

    def _op_sb(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.memory.store(addr, 1, self._rs2(i))
        return self._mem_result(addr, pc)

    # -- A extension ----------------------------------------------------------------

    def _op_amoadd_w(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        old = self.memory.load(addr, 4)
        self.memory.store(addr, 4, (old + self._rs2(i)) & _MASK32)
        self.regs.write(i.rd, old)
        return self._mem_result(addr, pc)

    def _op_amoswap_w(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        old = self.memory.load(addr, 4)
        self.memory.store(addr, 4, self._rs2(i) & _MASK32)
        self.regs.write(i.rd, old)
        return self._mem_result(addr, pc)

    def _op_lr_w(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        self.regs.write(i.rd, self.memory.load(addr, 4))
        self._reservation = addr
        return self._mem_result(addr, pc)

    def _op_sc_w(self, i: Instruction, pc: int) -> ExecResult:
        addr = (self._rs1(i) + i.imm) & _MASK32
        if self._reservation == addr:
            self.memory.store(addr, 4, self._rs2(i))
            self.regs.write(i.rd, 0)
        else:
            self.regs.write(i.rd, 1)
        self._reservation = None
        return self._mem_result(addr, pc)

    # -- control flow ------------------------------------------------------------------

    def _branch(self, taken: bool, i: Instruction, pc: int) -> ExecResult:
        if taken:
            return ExecResult(next_pc=i.target, branch_taken=True)
        return ExecResult(next_pc=pc + 1)

    def _op_beq(self, i: Instruction, pc: int) -> ExecResult:
        return self._branch(self._rs1(i) == self._rs2(i), i, pc)

    def _op_bne(self, i: Instruction, pc: int) -> ExecResult:
        return self._branch(self._rs1(i) != self._rs2(i), i, pc)

    def _op_blt(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        return self._branch(a < b, i, pc)

    def _op_bge(self, i: Instruction, pc: int) -> ExecResult:
        a, b = sign_extend(self._rs1(i), 32), sign_extend(self._rs2(i), 32)
        return self._branch(a >= b, i, pc)

    def _op_bltu(self, i: Instruction, pc: int) -> ExecResult:
        return self._branch((self._rs1(i) & _MASK32) < (self._rs2(i) & _MASK32), i, pc)

    def _op_bgeu(self, i: Instruction, pc: int) -> ExecResult:
        return self._branch((self._rs1(i) & _MASK32) >= (self._rs2(i) & _MASK32), i, pc)

    def _op_j(self, i: Instruction, pc: int) -> ExecResult:
        return ExecResult(next_pc=i.target, branch_taken=True)

    def _op_jal(self, i: Instruction, pc: int) -> ExecResult:
        self.regs.write(i.rd, pc + 1)
        return ExecResult(next_pc=i.target, branch_taken=True)

    def _op_jalr(self, i: Instruction, pc: int) -> ExecResult:
        target = (self._rs1(i) + i.imm) & _MASK32
        self.regs.write(i.rd, pc + 1)
        return ExecResult(next_pc=target, branch_taken=True)

    def _op_halt(self, i: Instruction, pc: int) -> ExecResult:
        return ExecResult(next_pc=pc, halted=True)

    def _op_ecall(self, i: Instruction, pc: int) -> ExecResult:
        return ExecResult(next_pc=pc, halted=True)

    # -- CMem extension -----------------------------------------------------------------

    def _op_mac_c(self, i: Instruction, pc: int) -> ExecResult:
        return self._mac(i, pc, signed=True)

    def _op_macu_c(self, i: Instruction, pc: int) -> ExecResult:
        return self._mac(i, pc, signed=False)

    def _mac(self, i: Instruction, pc: int, *, signed: bool) -> ExecResult:
        cmem = self._require_cmem()
        cm = i.cm
        value = cmem.mac(cm["slice"], cm["row_a"], cm["row_b"], cm["n"], signed=signed)
        self.regs.write(i.rd, value & _MASK32)
        return ExecResult(next_pc=pc + 1, cmem_slices=(cm["slice"],))

    def _op_move_c(self, i: Instruction, pc: int) -> ExecResult:
        cmem = self._require_cmem()
        cm = i.cm
        cmem.move(cm["src_slice"], cm["src_row"], cm["dst_slice"], cm["dst_row"], cm["n"])
        return ExecResult(next_pc=pc + 1, cmem_slices=(cm["src_slice"], cm["dst_slice"]))

    def _op_setrow_c(self, i: Instruction, pc: int) -> ExecResult:
        cmem = self._require_cmem()
        cm = i.cm
        cmem.set_row(cm["slice"], cm["row"], cm["value"])
        return ExecResult(next_pc=pc + 1, cmem_slices=(cm["slice"],))

    def _op_shiftrow_c(self, i: Instruction, pc: int) -> ExecResult:
        cmem = self._require_cmem()
        cm = i.cm
        cmem.shift_row(cm["slice"], cm["row"], cm["words"])
        return ExecResult(next_pc=pc + 1, cmem_slices=(cm["slice"],))

    def _op_setcsr_c(self, i: Instruction, pc: int) -> ExecResult:
        cmem = self._require_cmem()
        cm = i.cm
        cmem.slice(cm["slice"]).csr_mask = cm["mask"] & FULL_CSR_MASK
        return ExecResult(next_pc=pc + 1, cmem_slices=(cm["slice"],))

    def _op_loadrow_rc(self, i: Instruction, pc: int) -> ExecResult:
        """LoadRow.RC: fetch a 256-bit row from a remote node's CMem."""
        cmem = self._require_cmem()
        cm = i.cm
        addr = self.regs.read(i.rs1)
        if self.memory.remote_handler is None:
            raise DecodeError("LoadRow.RC with no NoC row handler attached")
        bits = self.memory.remote_handler(False, addr, 32, 0)
        row_bits = [(bits >> b) & 1 for b in range(COLS)]
        cmem.write_row(cm["slice"], cm["row"], row_bits)
        return ExecResult(
            next_pc=pc + 1,
            mem_region=AddressRegion.REMOTE_CORE,
            cmem_slices=(cm["slice"],),
        )

    def _op_storerow_rc(self, i: Instruction, pc: int) -> ExecResult:
        """StoreRow.RC: push a 256-bit row to a remote node's CMem."""
        cmem = self._require_cmem()
        cm = i.cm
        addr = self.regs.read(i.rs1)
        bits = cmem.read_row(cm["slice"], cm["row"])
        packed = 0
        for b, bit in enumerate(bits):
            packed |= int(bit) << b
        if self.memory.remote_handler is None:
            raise DecodeError("StoreRow.RC with no NoC row handler attached")
        self.memory.remote_handler(True, addr, 32, packed)
        return ExecResult(
            next_pc=pc + 1,
            mem_region=AddressRegion.REMOTE_CORE,
            cmem_slices=(cm["slice"],),
        )
