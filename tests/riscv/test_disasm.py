"""A disassembler that round-trips through the assembler.

:func:`disassemble` renders ``Instruction`` objects back to canonical
assembly text (branch targets become generated labels).  Re-assembling
its output must give the same program, which checks the assembler's
parsing of every operand form.
"""

from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.riscv.assembler import assemble
from repro.riscv.core import Core
from repro.riscv.isa import Instruction
from repro.riscv.registers import NUM_REGS, reg_name


def _format_one(instr: Instruction, labels: Dict[int, str]) -> str:
    op = instr.opcode
    spec = instr.spec
    cm = instr.cm
    if spec.cmem_op is not None:
        if op in ("mac.c", "macu.c"):
            return (f"{op} {reg_name(instr.rd)}, {cm['slice']}, "
                    f"{cm['row_a']}, {cm['row_b']}, {cm['n']}")
        if op == "move.c":
            return (f"{op} {cm['src_slice']}, {cm['src_row']}, "
                    f"{cm['dst_slice']}, {cm['dst_row']}, {cm['n']}")
        if op == "setrow.c":
            return f"{op} {cm['slice']}, {cm['row']}, {cm['value']}"
        if op == "shiftrow.c":
            return f"{op} {cm['slice']}, {cm['row']}, {cm['words']}"
        if op in ("loadrow.rc", "storerow.rc"):
            return f"{op} {cm['slice']}, {cm['row']}, {reg_name(instr.rs1)}"
        if op == "setcsr.c":
            return f"{op} {cm['slice']}, {cm['mask']:#x}"
        raise DecodeError(f"cannot format CMem op {op!r}")
    if op in ("nop", "halt", "ecall"):
        return op
    if op in ("lui", "auipc", "li"):
        return f"{op} {reg_name(instr.rd)}, {instr.imm}"
    if op == "mv":
        return f"{op} {reg_name(instr.rd)}, {reg_name(instr.rs1)}"
    if spec.is_load and not spec.is_atomic:
        return f"{op} {reg_name(instr.rd)}, {instr.imm}({reg_name(instr.rs1)})"
    if spec.is_store and not spec.is_atomic:
        return f"{op} {reg_name(instr.rs2)}, {instr.imm}({reg_name(instr.rs1)})"
    if spec.is_atomic:
        if op == "lr.w":
            return f"{op} {reg_name(instr.rd)}, {instr.imm}({reg_name(instr.rs1)})"
        return (f"{op} {reg_name(instr.rd)}, {reg_name(instr.rs2)}, "
                f"{instr.imm}({reg_name(instr.rs1)})")
    if spec.is_branch:
        if op == "j":
            return f"{op} {labels[instr.target]}"
        if op == "jal":
            return f"{op} {reg_name(instr.rd)}, {labels[instr.target]}"
        if op == "jalr":
            return (f"{op} {reg_name(instr.rd)}, {reg_name(instr.rs1)}, "
                    f"{instr.imm}")
        return (f"{op} {reg_name(instr.rs1)}, {reg_name(instr.rs2)}, "
                f"{labels[instr.target]}")
    if spec.reads_rs2:
        return (f"{op} {reg_name(instr.rd)}, {reg_name(instr.rs1)}, "
                f"{reg_name(instr.rs2)}")
    return f"{op} {reg_name(instr.rd)}, {reg_name(instr.rs1)}, {instr.imm}"


def disassemble(program: Sequence[Instruction]) -> str:
    """Render a program as assembly text that re-assembles equivalently."""
    labels: Dict[int, str] = {}
    for instr in program:
        if instr.target is not None and instr.target not in labels:
            labels[instr.target] = f"L{instr.target}"
    lines: List[str] = []
    for index, instr in enumerate(program):
        if index in labels:
            lines.append(f"{labels[index]}:")
        lines.append(f"    {_format_one(instr, labels)}")
    return "\n".join(lines)


def fields(instr):
    return (instr.opcode, instr.rd, instr.rs1, instr.rs2, instr.imm,
            instr.target, dict(instr.cm))


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "add a0, a1, a2",
        "addi t0, t1, -42",
        "li a0, 4096",
        "lw a0, 8(sp)",
        "sw a1, -4(s0)",
        "amoadd.w a0, a1, 4(a2)",
        "lr.w a0, (a1)",
        "sc.w a0, a1, (a2)",
        "mul a0, a1, a2",
        "div a0, a1, a2",
        "mv a0, a1",
        "nop",
        "halt",
        "mac.c a0, 1, 0, 8, 8",
        "macu.c a1, 2, 0, 16, 4",
        "move.c 0, 0, 3, 8, 8",
        "setrow.c 1, 5, 0",
        "shiftrow.c 1, 5, -2",
        "loadrow.rc 1, 3, a0",
        "storerow.rc 1, 3, a1",
        "setcsr.c 2, 0xf",
    ])
    def test_single_instruction(self, text):
        original = assemble(text)
        again = assemble(disassemble(original))
        assert [fields(i) for i in original] == [fields(i) for i in again]

    def test_branches_get_labels(self):
        text = """
            li t0, 3
        loop:
            addi t0, t0, -1
            bne t0, zero, loop
            j end
            nop
        end:
            halt
        """
        original = assemble(text)
        rendered = disassemble(original)
        again = assemble(rendered)
        assert [fields(i) for i in original] == [fields(i) for i in again]

    def test_roundtrip_preserves_execution(self):
        text = """
            li t0, 6
            li t1, 0
        loop:
            addi t1, t1, 7
            addi t0, t0, -1
            bne t0, zero, loop
            halt
        """
        core_a, core_b = Core(), Core()
        core_a.run(text)
        core_b.run(disassemble(assemble(text)))
        for i in range(NUM_REGS):
            assert core_a.regs.read(i) == core_b.regs.read(i)

    def test_generated_kernel_roundtrips(self):
        from repro.core.node import MAICCNode
        from repro.nn.workloads import ConvLayerSpec

        spec = ConvLayerSpec(0, "t", h=3, w=3, c=32, m=1, padding=0)
        rng = np.random.default_rng(0)
        node = MAICCNode(
            spec,
            rng.integers(-128, 128, size=(1, 32, 3, 3)),
            rng.integers(-10, 10, size=1),
        )
        program = node.build_program()
        again = assemble(disassemble(program))
        assert [fields(i) for i in program] == [fields(i) for i in again]
