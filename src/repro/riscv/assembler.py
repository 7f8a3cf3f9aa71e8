"""A two-pass assembler for the simulator's assembly dialect.

Syntax (one instruction per line, ``#`` comments, ``label:`` definitions)::

    loop:
        li     t0, 256           # 32-bit immediates allowed
        lw     a0, 8(sp)         # loads:  rd, imm(rs1)
        sw     a0, 0(sp)         # stores: rs2, imm(rs1)
        amoswap.w t1, t2, (a0)   # atomics: rd, rs2, (rs1)
        beq    a0, t0, loop      # branches take label targets
        mac.c  a0, 1, 0, 8, 8    # rd, slice, rowA, rowB, n
        move.c 0, 0, 3, 8, 8     # srcSlice, srcRow, dstSlice, dstRow, n
        setrow.c 1, 5, 0         # slice, row, value
        shiftrow.c 1, 5, 2       # slice, row, words
        loadrow.rc 1, 3, a0      # slice, row, address register
        storerow.rc 1, 3, a0
        setcsr.c 1, 0xff         # slice, mask
        halt

Labels resolve to instruction indices (the simulator's PC is an index into
the instruction list, matching the assembly-level abstraction).
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.errors import AssemblerError, DecodeError
from repro.riscv.isa import Instruction, OPCODES
from repro.riscv.registers import reg_index

_LABEL_RE = re.compile(r"^\s*([A-Za-z_.][\w.]*)\s*:\s*(.*)$")
_MEM_RE = re.compile(r"^(-?(?:0[xX][0-9a-fA-F]+|\d+))?\(\s*([\w.]+)\s*\)$")


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"line {line_no}: expected integer, got {token!r}") from None


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [tok.strip() for tok in rest.split(",")]


class _Parser:
    """Single program parse with label fixup."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self.fixups: List[tuple[int, str, int]] = []  # (instr idx, label, line)

    def parse(self) -> List[Instruction]:
        for line_no, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            while line:
                match = _LABEL_RE.match(line)
                if match and match.group(1) not in OPCODES:
                    label = match.group(1)
                    if label in self.labels:
                        raise AssemblerError(f"line {line_no}: duplicate label {label!r}")
                    self.labels[label] = len(self.instructions)
                    line = match.group(2).strip()
                    continue
                self._parse_instruction(line, line_no)
                line = ""
        self._resolve_fixups()
        return self.instructions

    def _resolve_fixups(self) -> None:
        for index, label, line_no in self.fixups:
            if label not in self.labels:
                raise AssemblerError(f"line {line_no}: undefined label {label!r}")
            self.instructions[index].target = self.labels[label]

    # -- per-format parsing ------------------------------------------------------

    def _parse_instruction(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        opcode = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if opcode not in OPCODES:
            raise AssemblerError(f"line {line_no}: unknown opcode {opcode!r}")
        operands = _split_operands(rest)
        spec = OPCODES[opcode]
        instr = Instruction(opcode=opcode, source_line=line_no)

        try:
            if spec.cmem_op is not None:
                self._parse_cmem(instr, operands, line_no)
            elif spec.is_load and not spec.is_atomic:
                self._parse_load(instr, operands, line_no)
            elif spec.is_store and not spec.is_atomic:
                self._parse_store(instr, operands, line_no)
            elif spec.is_atomic:
                self._parse_atomic(instr, operands, line_no)
            elif spec.is_branch:
                self._parse_branch(instr, operands, line_no)
            else:
                self._parse_alu(instr, operands, line_no)
        except DecodeError as exc:
            # Bad register tokens surface as assembly errors with line info.
            raise AssemblerError(f"line {line_no}: {exc}") from None
        self.instructions.append(instr)

    def _expect(self, operands: List[str], count: int, line_no: int, what: str) -> None:
        if len(operands) != count:
            raise AssemblerError(
                f"line {line_no}: {what} expects {count} operands, got {len(operands)}"
            )

    def _parse_alu(self, instr: Instruction, ops: List[str], line_no: int) -> None:
        opcode = instr.opcode
        if opcode in ("nop", "halt", "ecall"):
            self._expect(ops, 0, line_no, opcode)
            return
        if opcode in ("lui", "auipc", "li"):
            self._expect(ops, 2, line_no, opcode)
            instr.rd = reg_index(ops[0])
            instr.imm = _parse_int(ops[1], line_no)
            return
        if opcode == "mv":
            self._expect(ops, 2, line_no, opcode)
            instr.rd = reg_index(ops[0])
            instr.rs1 = reg_index(ops[1])
            return
        spec = instr.spec
        if spec.reads_rs2:
            self._expect(ops, 3, line_no, opcode)
            instr.rd = reg_index(ops[0])
            instr.rs1 = reg_index(ops[1])
            instr.rs2 = reg_index(ops[2])
        else:
            self._expect(ops, 3, line_no, opcode)
            instr.rd = reg_index(ops[0])
            instr.rs1 = reg_index(ops[1])
            instr.imm = _parse_int(ops[2], line_no)

    def _parse_mem_operand(self, token: str, line_no: int) -> tuple[int, int]:
        match = _MEM_RE.match(token.strip())
        if not match:
            raise AssemblerError(
                f"line {line_no}: expected imm(reg) memory operand, got {token!r}"
            )
        imm = _parse_int(match.group(1), line_no) if match.group(1) else 0
        return imm, reg_index(match.group(2))

    def _parse_load(self, instr: Instruction, ops: List[str], line_no: int) -> None:
        self._expect(ops, 2, line_no, instr.opcode)
        instr.rd = reg_index(ops[0])
        instr.imm, instr.rs1 = self._parse_mem_operand(ops[1], line_no)

    def _parse_store(self, instr: Instruction, ops: List[str], line_no: int) -> None:
        self._expect(ops, 2, line_no, instr.opcode)
        instr.rs2 = reg_index(ops[0])
        instr.imm, instr.rs1 = self._parse_mem_operand(ops[1], line_no)

    def _parse_atomic(self, instr: Instruction, ops: List[str], line_no: int) -> None:
        if instr.opcode == "lr.w":
            self._expect(ops, 2, line_no, instr.opcode)
            instr.rd = reg_index(ops[0])
            instr.imm, instr.rs1 = self._parse_mem_operand(ops[1], line_no)
            return
        self._expect(ops, 3, line_no, instr.opcode)
        instr.rd = reg_index(ops[0])
        instr.rs2 = reg_index(ops[1])
        instr.imm, instr.rs1 = self._parse_mem_operand(ops[2], line_no)

    def _parse_branch(self, instr: Instruction, ops: List[str], line_no: int) -> None:
        opcode = instr.opcode
        if opcode == "j":
            self._expect(ops, 1, line_no, opcode)
            self.fixups.append((len(self.instructions), ops[0], line_no))
            return
        if opcode == "jal":
            self._expect(ops, 2, line_no, opcode)
            instr.rd = reg_index(ops[0])
            self.fixups.append((len(self.instructions), ops[1], line_no))
            return
        if opcode == "jalr":
            self._expect(ops, 3, line_no, opcode)
            instr.rd = reg_index(ops[0])
            instr.rs1 = reg_index(ops[1])
            instr.imm = _parse_int(ops[2], line_no)
            return
        self._expect(ops, 3, line_no, opcode)
        instr.rs1 = reg_index(ops[0])
        instr.rs2 = reg_index(ops[1])
        self.fixups.append((len(self.instructions), ops[2], line_no))

    def _parse_cmem(self, instr: Instruction, ops: List[str], line_no: int) -> None:
        opcode = instr.opcode
        if opcode in ("mac.c", "macu.c"):
            self._expect(ops, 5, line_no, opcode)
            instr.rd = reg_index(ops[0])
            instr.cm = {
                "slice": _parse_int(ops[1], line_no),
                "row_a": _parse_int(ops[2], line_no),
                "row_b": _parse_int(ops[3], line_no),
                "n": _parse_int(ops[4], line_no),
            }
        elif opcode == "move.c":
            self._expect(ops, 5, line_no, opcode)
            instr.cm = {
                "src_slice": _parse_int(ops[0], line_no),
                "src_row": _parse_int(ops[1], line_no),
                "dst_slice": _parse_int(ops[2], line_no),
                "dst_row": _parse_int(ops[3], line_no),
                "n": _parse_int(ops[4], line_no),
            }
        elif opcode == "setrow.c":
            self._expect(ops, 3, line_no, opcode)
            instr.cm = {
                "slice": _parse_int(ops[0], line_no),
                "row": _parse_int(ops[1], line_no),
                "value": _parse_int(ops[2], line_no),
            }
        elif opcode == "shiftrow.c":
            self._expect(ops, 3, line_no, opcode)
            instr.cm = {
                "slice": _parse_int(ops[0], line_no),
                "row": _parse_int(ops[1], line_no),
                "words": _parse_int(ops[2], line_no),
            }
        elif opcode in ("loadrow.rc", "storerow.rc"):
            self._expect(ops, 3, line_no, opcode)
            instr.cm = {
                "slice": _parse_int(ops[0], line_no),
                "row": _parse_int(ops[1], line_no),
            }
            instr.rs1 = reg_index(ops[2])
        elif opcode == "setcsr.c":
            self._expect(ops, 2, line_no, opcode)
            instr.cm = {
                "slice": _parse_int(ops[0], line_no),
                "mask": _parse_int(ops[1], line_no),
            }
        else:  # pragma: no cover - spec table and parser kept in sync
            raise AssemblerError(f"line {line_no}: unhandled CMem opcode {opcode}")


def assemble(text: str) -> List[Instruction]:
    """Assemble program text into an instruction list."""
    return _Parser(text).parse()
