"""The static scheduler's cycle predictions against the pipeline simulator.

The acceptance bar of the analysis subsystem: for branch-free programs the
symbolic timing model must reproduce ``riscv.pipeline`` cycle counts
*exactly* — both for the as-emitted kernel and for its statically
scheduled reorder — so predicted stall savings can be trusted without
running the simulator.
"""

import numpy as np
import pytest

from repro.analysis import estimate_cycles, schedule_kernel, verify_program
from repro.core.node import MAICCNode
from repro.errors import SchedulingError
from repro.nn.workloads import ConvLayerSpec
from repro.riscv.assembler import assemble
from repro.riscv.core import Core
from repro.riscv.pipeline import PipelineConfig


def small_spec(**kw):
    defaults = dict(h=4, w=4, c=32, m=2, r=3, s=3, stride=1, padding=0)
    defaults.update(kw)
    return ConvLayerSpec(0, "sched", **defaults)


def make_node(seed=0, **kw):
    spec = small_spec(**kw)
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-500, 500, size=spec.m)
    ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
    return MAICCNode(spec, weights, bias), ifmap


def simulate(program, **cfg) -> int:
    core = Core(
        PipelineConfig(**cfg),
        remote_handler=lambda is_store, addr, size, value: 0,
    )
    return core.run(program).cycles


class TestExactPrediction:
    def test_alu_program(self):
        program = assemble(
            "\n".join(f"li x{5 + (i % 8)}, {i}" for i in range(32)) + "\nhalt"
        )
        est = estimate_cycles(program)
        assert est.exact
        assert est.cycles == simulate(program)

    def test_muldiv_structural_hazard(self):
        program = assemble(
            "li a1, 99\nli a2, 7\ndiv a0, a1, a2\ndiv a3, a1, a2\n"
            "mul a4, a1, a2\nadd a5, a0, a3\nhalt"
        )
        est = estimate_cycles(program)
        assert est.cycles == simulate(program)
        assert est.structural_stall_cycles > 0

    def test_cmem_queue_and_slices(self):
        body = []
        for i in range(12):
            body.append(f"mac.c a{i % 8}, {1 + (i % 7)}, 0, 8, 8")
        body.append("halt")
        program = assemble("\n".join(body))
        for queue in (0, 2, 4):
            est = estimate_cycles(program, PipelineConfig(cmem_queue_size=queue))
            assert est.cycles == simulate(program, cmem_queue_size=queue)

    def test_remote_row_latency(self):
        program = assemble(
            "li t0, 0x40000000\nloadrow.rc 0, 0, t0\nstorerow.rc 0, 0, t0\nhalt"
        )
        est = estimate_cycles(program)
        assert est.cycles == simulate(program)

    def test_writeback_port_pressure(self):
        program = assemble(
            "\n".join(f"mul x{5 + i}, x{5 + i}, x{5 + i}" for i in range(8))
            + "\nhalt"
        )
        for ports in (1, 2):
            est = estimate_cycles(program, PipelineConfig(writeback_ports=ports))
            assert est.cycles == simulate(program, writeback_ports=ports)

    def test_branches_marked_inexact(self):
        program = assemble("li a0, 1\nbeq a0, zero, end\nli a1, 2\nend: halt")
        assert not estimate_cycles(program).exact


class TestConvKernelPrediction:
    """Predicted stall reduction must match riscv.pipeline on a conv kernel."""

    @pytest.mark.parametrize("kw", [dict(), dict(padding=1)], ids=["plain", "padded"])
    def test_prediction_matches_pipeline(self, kw):
        node, ifmap = make_node(**kw)
        program = node.build_program()
        report = schedule_kernel(program)
        assert report.baseline.exact and report.scheduled.exact

        baseline_sim = node.run(ifmap).stats.cycles
        scheduled_sim = node.run(ifmap, static=True).stats.cycles
        assert report.baseline.cycles == baseline_sim
        assert report.scheduled.cycles == scheduled_sim
        assert report.predicted_saving == baseline_sim - scheduled_sim
        assert report.predicted_saving > 0  # scheduling must actually help

    def test_scheduled_kernel_still_lints_clean(self):
        node, _ = make_node()
        report = schedule_kernel(node.build_program())
        assert verify_program(report.program).clean

    def test_raw_stalls_reduced(self):
        node, _ = make_node()
        report = schedule_kernel(node.build_program())
        assert (
            report.scheduled.raw_stall_cycles + report.scheduled.structural_stall_cycles
            < report.baseline.raw_stall_cycles + report.baseline.structural_stall_cycles
        )


class TestSchedulerSafety:
    def test_reorder_introducing_errors_rejected(self, monkeypatch):
        """A buggy reorder that breaks the program must raise."""
        import repro.analysis.scheduler as sched_mod

        node, _ = make_node()
        program = node.build_program()

        def broken_schedule(prog, max_window=400):
            out = [
                sched_mod.Instruction(
                    opcode=i.opcode, rd=i.rd, rs1=i.rs1, rs2=i.rs2,
                    imm=i.imm, target=i.target, cm=dict(i.cm),
                )
                for i in prog
            ]
            macs = [i for i in out if i.opcode == "mac.c"]
            macs[0].cm["slice"] = 42  # corrupt one op
            return out

        monkeypatch.setattr(sched_mod, "static_schedule", broken_schedule)
        with pytest.raises(SchedulingError):
            sched_mod.schedule_kernel(program)
