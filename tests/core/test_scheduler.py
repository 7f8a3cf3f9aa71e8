"""Static scheduler: semantics preservation (property-tested) and gains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import static_schedule
from repro.riscv.assembler import assemble
from repro.riscv.core import Core
from repro.riscv.registers import NUM_REGS


def registers(core):
    return [core.regs.read(i) for i in range(NUM_REGS)]


def run_program(program):
    core = Core()
    stats = core.run(program)
    return registers(core), bytes(core.memory.dmem[:256]), stats.cycles


# Random straight-line programs over a small register/memory universe.
REGS = ["a0", "a1", "a2", "a3", "t0", "t1"]
ADDRS = [0, 4, 8, 12]


@st.composite
def straight_line_program(draw):
    lines = ["li a0, 3", "li a1, 5", "li a2, -7", "li a3, 11", "li t0, 2", "li t1, 9"]
    for _ in range(draw(st.integers(3, 25))):
        kind = draw(st.sampled_from(["alu", "imm", "mul", "load", "store"]))
        rd = draw(st.sampled_from(REGS))
        rs1 = draw(st.sampled_from(REGS))
        rs2 = draw(st.sampled_from(REGS))
        if kind == "alu":
            op = draw(st.sampled_from(["add", "sub", "xor", "and", "or"]))
            lines.append(f"{op} {rd}, {rs1}, {rs2}")
        elif kind == "imm":
            op = draw(st.sampled_from(["addi", "xori", "slli"]))
            imm = draw(st.integers(0, 7))
            lines.append(f"{op} {rd}, {rs1}, {imm}")
        elif kind == "mul":
            lines.append(f"mul {rd}, {rs1}, {rs2}")
        elif kind == "load":
            lines.append(f"lw {rd}, {draw(st.sampled_from(ADDRS))}(zero)")
        else:
            lines.append(f"sw {rs2}, {draw(st.sampled_from(ADDRS))}(zero)")
    lines.append("halt")
    return "\n".join(lines)


class TestSemanticsPreservation:
    @given(straight_line_program())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_unchanged(self, text):
        program = assemble(text)
        scheduled = static_schedule(program)
        assert run_program(program)[:2] == run_program(scheduled)[:2]

    def test_branchy_program_unchanged(self):
        text = """
            li t0, 6
            li t1, 0
        loop:
            addi t1, t1, 5
            sw t1, 0(zero)
            addi t0, t0, -1
            bne t0, zero, loop
            lw a0, 0(zero)
            halt
        """
        program = assemble(text)
        scheduled = static_schedule(program)
        regs_a, mem_a, _ = run_program(program)
        regs_b, mem_b, _ = run_program(scheduled)
        assert regs_a == regs_b
        assert mem_a == mem_b

    def test_cmem_program_unchanged(self):
        a = np.arange(-20, 12)
        program = assemble(
            "mac.c a0, 1, 0, 8, 8\n"
            "sw a0, 0(zero)\n"
            "mac.c a1, 2, 0, 8, 8\n"
            "add a2, a0, a1\n"
            "halt"
        )

        def run(prog):
            core = Core()
            core.cmem.store_vector_transposed(1, 0, a, 8, signed=True)
            core.cmem.store_vector_transposed(1, 8, a, 8, signed=True)
            core.cmem.store_vector_transposed(2, 0, a, 8, signed=True)
            core.cmem.store_vector_transposed(2, 8, a, 8, signed=True)
            core.run(prog)
            return registers(core)

        assert run(program) == run(static_schedule(program))

    def test_instruction_count_preserved(self):
        program = assemble("li a0, 1\nli a1, 2\nadd a2, a0, a1\nhalt")
        assert len(static_schedule(program)) == len(program)

    def test_original_not_mutated(self):
        program = assemble("mul a0, a1, a2\nadd a3, a0, a0\nli t0, 5\nhalt")
        order_before = [id(i) for i in program]
        static_schedule(program)
        assert [id(i) for i in program] == order_before


class TestLatencyHiding:
    def test_fills_mul_delay_slot(self):
        """Independent work moves between a mul and its consumer."""
        text = (
            "li a1, 3\nli a2, 4\nmul a0, a1, a2\nadd a3, a0, a0\n"
            + "\n".join(f"addi t{i % 2}, zero, {i}" for i in range(6))
            + "\nhalt"
        )
        program = assemble(text)
        scheduled = static_schedule(program)
        assert run_program(scheduled)[2] < run_program(program)[2]

    def test_cmem_delay_slots_filled(self):
        a = np.arange(32)
        text = (
            "mac.c a0, 1, 0, 8, 8\nadd a1, a0, a0\n"
            + "\n".join(f"addi t{i % 2}, zero, {i}" for i in range(10))
            + "\nhalt"
        )
        program = assemble(text)

        def cycles(prog):
            core = Core()
            core.cmem.store_vector_transposed(1, 0, a, 8, signed=True)
            core.cmem.store_vector_transposed(1, 8, a, 8, signed=True)
            return core.run(prog).cycles

        assert cycles(static_schedule(program)) <= cycles(program)

    def test_branch_targets_remapped(self):
        text = """
            li t0, 3
            j middle
            li t1, 99
        middle:
            addi t1, t1, 1
            halt
        """
        program = assemble(text)
        scheduled = static_schedule(program)
        core = Core()
        core.run(scheduled)
        assert core.regs.read(6) == 1  # t1: skipped the 99
