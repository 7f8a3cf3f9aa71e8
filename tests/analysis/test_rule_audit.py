"""Dead-rule audit: every cataloged rule must be emittable by a fixture.

A rule in :mod:`repro.analysis.rules` that no fixture can trip is either
dead code or (worse) a check that silently never fires.  This module
keeps one minimal triggering fixture per rule ID and fails when a rule
is added to the catalog without one — extend ``FIXTURES`` alongside the
catalog.
"""

import pytest

from repro.analysis import (
    AnalysisConfig,
    ResidentPlan,
    RouteFlow,
    RULES,
    check_routes as check_on,
    verify_plan,
    verify_program,
)
from repro.core.chip import ChipConfig
from repro.mapping.allocation import AllocationResult
from repro.mapping.segmentation import Segment, SegmentPlan
from repro.nn.workloads import ConvLayerSpec, NetworkSpec
from repro.riscv.assembler import assemble
from repro.riscv.isa import Instruction
from repro.sim.config import SimConfig
from tests.analysis.lint import lint_text


def _bad_branch():
    program = assemble("beq a0, a1, out\nout: halt")
    program[0].target = 99
    return verify_program(program)


def _manual_plan(spec, nodes):
    segment = Segment(
        layers=[spec],
        allocation=AllocationResult(
            nodes={spec.index: nodes},
            times={spec.index: 1.0},
            bottleneck_time=1.0,
        ),
    )
    network = NetworkSpec(name="manual", layers=(spec,))
    return SegmentPlan(strategy="manual", network=network, segments=[segment])


def _small_resident(name, start):
    spec = ConvLayerSpec(1, f"{name}0", h=4, w=4, c=32, m=2)
    return ResidentPlan(name, _manual_plan(spec, nodes=2), region_start=start)


def _plan601():
    spec = ConvLayerSpec(1, "starved", h=4, w=4, c=256, m=64)
    return verify_plan(_manual_plan(spec, nodes=0))


def _plan602():
    spec = ConvLayerSpec(1, "huge", h=4, w=4, c=32, m=2)
    return verify_plan(_manual_plan(spec, nodes=4), SimConfig(array_size=2))


def _plan603():
    spec = ConvLayerSpec(1, "wide", h=4, w=4, c=256, m=4, n_bits=64)
    return verify_plan(_manual_plan(spec, nodes=4))


def _plan604():
    spec = ConvLayerSpec(1, "fat", h=8, w=8, c=256, m=512)
    return verify_plan(_manual_plan(spec, nodes=1))


def _plan605():
    residents = [_small_resident(f"t{i}", 8 * i) for i in range(7)]
    return verify_plan(co_resident=residents)


def _plan606():
    residents = [_small_resident("a", 0), _small_resident("b", 1)]
    return verify_plan(co_resident=residents)


def check_routes(flows):
    return check_on(flows, ChipConfig())


def _noc701():
    return check_routes([
        RouteFlow("east", (0, 0), (1, 1), path=((0, 0), (1, 0), (1, 1))),
        RouteFlow("south", (1, 0), (0, 1), path=((1, 0), (1, 1), (0, 1))),
        RouteFlow("west", (1, 1), (0, 0), path=((1, 1), (0, 1), (0, 0))),
        RouteFlow("north", (0, 1), (1, 0), path=((0, 1), (0, 0), (1, 0))),
    ])


def _noc702():
    return check_routes([
        RouteFlow("a", (0, 1), (4, 1), rate=0.7),
        RouteFlow("b", (1, 1), (4, 1), rate=0.7),
    ])


#: rule ID -> zero-arg callable returning a report that emits the rule.
FIXTURES = {
    "PROG101": lambda: verify_program(
        [Instruction(opcode="bogus"), Instruction(opcode="halt")]
    ),
    "PROG102": _bad_branch,
    "PROG103": lambda: lint_text("li a0, 1\nli a1, 2"),
    "PROG104": lambda: lint_text("j end\nli a0, 1\nend: halt"),
    "HAZ201": lambda: lint_text(
        "li a1, 99\nli a2, 7\ndiv a0, a1, a2\nadd a3, a0, a0\nhalt",
        AnalysisConfig(stall_threshold=4),
    ),
    "HAZ202": lambda: lint_text(
        "li a1, 99\nli a2, 7\ndiv a0, a1, a2\nli a0, 1\nhalt",
        AnalysisConfig(stall_threshold=4),
    ),
    "HAZ203": lambda: lint_text("li a0, 1\nli a0, 2\nsw a0, 0(zero)\nhalt"),
    "HAZ204": lambda: lint_text("add a2, a0, a1\nhalt"),
    "CMEM301": lambda: lint_text("mac.c a0, 9, 0, 8, 8\nhalt"),
    "CMEM302": lambda: lint_text("mac.c a0, 0, 0, 8, 8\nhalt"),
    "CMEM303": lambda: lint_text("mac.c a0, 1, 0, 60, 8\nhalt"),
    "CMEM304": lambda: lint_text("move.c 0, 0, 3, 0, 40\nhalt"),
    "CMEM305": lambda: lint_text("mac.c a0, 1, 4, 8, 8\nhalt"),
    "CMEM306": lambda: lint_text("move.c 2, 0, 2, 4, 8\nhalt"),
    "CMEM307": lambda: lint_text("setrow.c 1, 5, 7\nhalt"),
    "CMEM308": lambda: lint_text("shiftrow.c 1, 5, 8\nhalt"),
    "CMEM309": lambda: lint_text("setcsr.c 1, 0x1ff\nhalt"),
    "LOCK401": lambda: lint_text(
        "li t0, 0x40000000\n"
        "loadrow.rc 0, 0, t0\n"
        "li t1, 0x100\n"
        "spin: amoswap.w t2, t1, (t1)\n"
        "bne t2, zero, spin\n"
        "loadrow.rc 0, 1, t0\n"
        "sw zero, 0x100(zero)\n"
        "halt"
    ),
    "LOCK402": lambda: lint_text(
        "li t1, 0x100\n"
        "amoswap.w t2, t1, (t1)\n"
        "add t3, t2, t2\n"
        "sw t3, 0(zero)\n"
        "amoswap.w t4, t1, (t1)\n"
        "halt"
    ),
    "MEM501": lambda: lint_text("lw a0, 0x2000(zero)\nhalt"),
    "MEM502": lambda: lint_text("lw a0, 2(zero)\nhalt"),
    "PLAN601": _plan601,
    "PLAN602": _plan602,
    "PLAN603": _plan603,
    "PLAN604": _plan604,
    "PLAN605": _plan605,
    "PLAN606": _plan606,
    "NOC701": _noc701,
    "NOC702": _noc702,
    "NOC703": lambda: check_routes([RouteFlow("off", (0, 0), (99, 0))]),
}


def test_every_rule_has_a_fixture():
    missing = sorted(set(RULES) - set(FIXTURES))
    assert not missing, f"dead rules (no triggering fixture): {missing}"
    stale = sorted(set(FIXTURES) - set(RULES))
    assert not stale, f"fixtures for rules not in the catalog: {stale}"


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_rule_is_emitted_by_its_fixture(rule_id):
    report = FIXTURES[rule_id]()
    fired = {d.rule for d in report.diagnostics}
    assert rule_id in fired, (
        f"{rule_id} fixture emitted {sorted(fired)} instead"
    )


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_emitted_severity_matches_catalog(rule_id):
    report = FIXTURES[rule_id]()
    for diag in report.diagnostics:
        if diag.rule == rule_id:
            assert diag.severity is RULES[rule_id].severity
