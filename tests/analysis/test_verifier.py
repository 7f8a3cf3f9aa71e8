"""The static verifier: seeded-bug negatives and clean-kernel positives."""

import numpy as np
import pytest

from repro.analysis import (
    AnalysisConfig,
    RULES,
    Severity,
    verify_program,
)
from repro.core.conv_kernel import ConvKernelGenerator
from repro.core.datalayout import plan_node_layout
from repro.nn.workloads import ConvLayerSpec
from repro.riscv.assembler import assemble
from repro.riscv.isa import Instruction
from tests.analysis.lint import lint_text


def rules_of(report):
    return {d.rule for d in report.diagnostics}


def small_kernel(**kw):
    defaults = dict(h=4, w=4, c=32, m=2, r=3, s=3, stride=1, padding=0)
    defaults.update(kw)
    spec = ConvLayerSpec(0, "lint", **defaults)
    return ConvKernelGenerator(plan_node_layout(spec, spec.m))


class TestProgramStructure:
    def test_unknown_opcode_flagged(self):
        report = verify_program([Instruction(opcode="bogus"), Instruction(opcode="halt")])
        assert "PROG101" in rules_of(report)
        assert not report.ok

    def test_branch_target_out_of_range(self):
        program = assemble("beq a0, a1, out\nout: halt")
        program[0].target = 99  # seed a broken fixup
        report = verify_program(program)
        assert "PROG102" in rules_of(report)

    def test_fall_off_end(self):
        report = lint_text("li a0, 1\nli a1, 2")
        assert "PROG103" in rules_of(report)

    def test_unreachable_code_warned(self):
        report = lint_text("j end\nli a0, 1\nend: halt")
        assert "PROG104" in rules_of(report)
        assert report.ok  # warning, not error

    def test_clean_straight_line(self):
        report = lint_text("li a0, 1\nli a1, 2\nadd a2, a0, a1\nsw a2, 0(zero)\nhalt")
        assert report.clean


class TestCMemRules:
    def test_slice_out_of_range(self):
        report = lint_text("mac.c a0, 9, 0, 8, 8\nhalt")
        assert "CMEM301" in rules_of(report)

    def test_mac_on_slice0(self):
        report = lint_text("mac.c a0, 0, 0, 8, 8\nhalt")
        assert "CMEM302" in rules_of(report)

    def test_row_out_of_range(self):
        # rows [60, 68) exceed the 64-row slice
        report = lint_text("mac.c a0, 1, 0, 60, 8\nhalt")
        assert "CMEM303" in rules_of(report)

    def test_width_over_32_rejected(self):
        report = lint_text("move.c 0, 0, 3, 0, 40\nhalt")
        assert "CMEM304" in rules_of(report)

    def test_mac_operand_overlap(self):
        report = lint_text("mac.c a0, 1, 4, 8, 8\nhalt")
        assert "CMEM305" in rules_of(report)

    def test_move_same_slice_overlap(self):
        report = lint_text("move.c 2, 0, 2, 4, 8\nhalt")
        assert "CMEM306" in rules_of(report)

    def test_move_same_slice_disjoint_ok(self):
        report = lint_text("move.c 2, 0, 2, 8, 8\nhalt")
        assert "CMEM306" not in rules_of(report)

    def test_setrow_value_warned(self):
        report = lint_text("setrow.c 1, 5, 7\nhalt")
        assert "CMEM307" in rules_of(report)

    def test_shiftrow_word_bound(self):
        report = lint_text("shiftrow.c 1, 5, 8\nhalt")
        assert "CMEM308" in rules_of(report)
        assert "CMEM308" not in rules_of(lint_text("shiftrow.c 1, 5, 7\nhalt"))

    def test_csr_mask_truncation_warned(self):
        report = lint_text("setcsr.c 1, 0x1ff\nhalt")
        assert "CMEM309" in rules_of(report)

    def test_loadrow_row_bound(self):
        report = lint_text("li t0, 0x40000000\nloadrow.rc 0, 64, t0\nhalt")
        assert "CMEM303" in rules_of(report)


class TestHazardRules:
    def test_long_raw_stall_advised(self):
        report = lint_text(
            "li a1, 99\nli a2, 7\ndiv a0, a1, a2\nadd a3, a0, a0\nhalt",
            AnalysisConfig(stall_threshold=4),
        )
        advisories = [d for d in report.diagnostics if d.rule == "HAZ201"]
        assert advisories and advisories[0].severity is Severity.INFO

    def test_waw_stall_advised(self):
        report = lint_text(
            "li a1, 99\nli a2, 7\ndiv a0, a1, a2\nli a0, 1\nhalt",
            AnalysisConfig(stall_threshold=4),
        )
        assert [d for d in report.diagnostics if d.rule == "HAZ202"]

    def test_dead_write_warned(self):
        report = lint_text("li a0, 1\nli a0, 2\nsw a0, 0(zero)\nhalt")
        assert "HAZ203" in rules_of(report)

    def test_use_before_def_warned(self):
        report = lint_text("add a2, a0, a1\nhalt")
        assert "HAZ204" in rules_of(report)

    def test_assume_defined_suppresses(self):
        report = lint_text(
            "add a2, a0, a1\nsw a2, 0(zero)\nhalt",
            AnalysisConfig(assume_defined=frozenset({10, 11})),
        )
        assert "HAZ204" not in rules_of(report)

    def test_loop_carried_def_not_flagged(self):
        report = lint_text(
            "li a0, 3\nloop: addi a0, a0, -1\nbne a0, zero, loop\nhalt"
        )
        assert "HAZ204" not in rules_of(report)


class TestLockProtocol:
    def test_remote_row_before_acquire_warned(self):
        report = lint_text(
            "li t0, 0x40000000\n"
            "loadrow.rc 0, 0, t0\n"            # unprotected transfer
            "li t1, 0x100\n"
            "spin: amoswap.w t2, t1, (t1)\n"   # p/nextp acquire
            "bne t2, zero, spin\n"
            "loadrow.rc 0, 1, t0\n"
            "sw zero, 0x100(zero)\n"           # release
            "halt"
        )
        assert "LOCK401" in rules_of(report)
        flagged = [d.index for d in report.diagnostics if d.rule == "LOCK401"]
        assert flagged == [1]

    def test_unreleased_lock_warned(self):
        report = lint_text(
            "li t1, 0x100\n"
            "amoswap.w t2, t1, (t1)\n"
            "add t3, t2, t2\n"
            "sw t3, 0(zero)\n"
            "amoswap.w t4, t1, (t1)\n"
            "halt"
        )
        assert "LOCK402" in rules_of(report)

    def test_streaming_kernel_without_locks_unflagged(self):
        report = lint_text("li t0, 0x40000000\nloadrow.rc 0, 0, t0\nhalt")
        assert "LOCK401" not in rules_of(report)
        assert "LOCK402" not in rules_of(report)


class TestMemoryRules:
    def test_unmapped_static_address(self):
        report = lint_text("lw a0, 0x2000(zero)\nhalt")
        assert "MEM501" in rules_of(report)

    def test_misaligned_static_address(self):
        report = lint_text("lw a0, 2(zero)\nhalt")
        assert "MEM502" in rules_of(report)

    def test_dynamic_address_not_checked(self):
        report = lint_text("li a1, 0x2000\nlw a0, 0(a1)\nhalt")
        assert "MEM501" not in rules_of(report)


class TestGeneratedKernelsLintClean:
    """Every ConvKernelGenerator output must verify with no errors/warnings."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(padding=1),
            dict(h=6, w=6, stride=2, padding=1),
            dict(r=1, s=1),
        ],
        ids=["plain", "padded", "strided", "1x1"],
    )
    def test_kernel_lints_clean(self, kw):
        program = small_kernel(**kw).instructions()
        report = verify_program(program)
        assert report.clean, report.render()

    def test_forwarding_kernel_lints_clean(self):
        generator = small_kernel()
        generator.include_forward = True
        generator.forward_base = 0x4000_4000
        report = verify_program(generator.instructions())
        assert report.clean, report.render()

    def test_seeded_capacity_bug_is_caught(self):
        """Corrupting one MAC row operand must trip the verifier."""
        program = small_kernel().instructions()
        macs = [i for i, ins in enumerate(program) if ins.opcode == "mac.c"]
        program[macs[0]].cm["row_b"] = 63  # rows [63, 71) overflow the slice
        report = verify_program(program)
        assert not report.ok
        assert "CMEM303" in rules_of(report)

    def test_seeded_slice_bug_is_caught(self):
        program = small_kernel().instructions()
        moves = [i for i, ins in enumerate(program) if ins.opcode == "move.c"]
        program[moves[0]].cm["dst_slice"] = 8
        report = verify_program(program)
        assert "CMEM301" in rules_of(report)


class TestReportRendering:
    def test_json_roundtrip(self):
        import json

        report = lint_text("mac.c a0, 0, 0, 8, 8\nhalt")
        payload = json.loads(report.to_json())
        assert payload["errors"] >= 1
        assert any(d["rule"] == "CMEM302" for d in payload["diagnostics"])

    def test_render_mentions_rule_and_line(self):
        report = lint_text("mac.c a0, 0, 0, 8, 8\nhalt")
        text = report.render()
        assert "CMEM302" in text and "line 1" in text

    def test_rule_catalog_complete(self):
        report = lint_text("mac.c a0, 9, 99, 99, 99\nhalt")
        for diag in report.diagnostics:
            assert diag.rule in RULES
