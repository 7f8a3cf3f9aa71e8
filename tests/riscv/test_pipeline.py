"""Timing-model tests: hazards, CMem issue queue, write-back ports."""

import pytest

from repro.riscv.core import Core
from repro.riscv.pipeline import PipelineConfig
from repro.errors import ConfigurationError, SimulationError


def cycles(program: str, **cfg) -> int:
    core = Core(PipelineConfig(**cfg))
    return core.run(program).cycles


class TestBasicTiming:
    def test_single_cycle_throughput(self):
        """Independent ALU instructions issue one per cycle."""
        body = "\n".join(f"li x{5 + (i % 20)}, {i}" for i in range(40))
        total = cycles(body + "\nhalt")
        assert 40 <= total <= 50

    def test_independent_alu_ipc_near_one(self):
        program = "\n".join(f"addi x{5 + (i % 8)}, zero, {i}" for i in range(64))
        core = Core()
        stats = core.run(program + "\nhalt")
        assert stats.ipc > 0.8

    def test_raw_dependency_on_mul_stalls(self):
        dep = cycles("li a1, 3\nli a2, 4\nmul a0, a1, a2\nadd a3, a0, a0\nhalt")
        indep = cycles("li a1, 3\nli a2, 4\nmul a0, a1, a2\nadd a3, a1, a2\nhalt")
        assert dep > indep

    def test_div_longer_than_mul(self):
        mul = cycles("li a1, 100\nli a2, 7\nmul a0, a1, a2\nadd a3, a0, a0\nhalt")
        div = cycles("li a1, 100\nli a2, 7\ndiv a0, a1, a2\nadd a3, a0, a0\nhalt")
        assert div > mul

    def test_taken_branch_pays_penalty(self):
        taken = cycles("li a0, 1\nbeq a0, a0, skip\nnop\nskip: halt")
        untaken = cycles("li a0, 1\nbne a0, a0, skip\nnop\nskip: halt")
        assert taken > untaken

    def test_branch_penalty_config(self):
        prog = "li a0, 1\nbeq a0, a0, skip\nnop\nskip: halt"
        assert cycles(prog, branch_penalty=8) > cycles(prog, branch_penalty=1)

    def test_unpipelined_divider_structural_hazard(self):
        back_to_back = cycles(
            "li a1, 99\nli a2, 7\ndiv a0, a1, a2\ndiv a3, a1, a2\nhalt"
        )
        single = cycles("li a1, 99\nli a2, 7\ndiv a0, a1, a2\nhalt")
        assert back_to_back >= single + 15


class TestCMemScheduling:
    """The Sec. 3.3 mechanisms: issue queue and write-back ports."""

    @staticmethod
    def mac_burst(count: int) -> str:
        # MACs target distinct slices round-robin; scalar work follows.
        lines = []
        for i in range(count):
            s = 1 + (i % 7)
            lines.append(f"mac.c a{i % 4}, {s}, 0, 8, 8")
        lines += [f"addi t{i % 3}, zero, {i}" for i in range(20)]
        lines.append("halt")
        return "\n".join(lines)

    def test_queue_lets_scalar_work_proceed(self):
        # Burst of MACs on ONE slice: with no queue, the second MAC blocks
        # the ID stage and the trailing scalar work; a queue decouples it.
        prog = (
            "mac.c a0, 1, 0, 8, 8\nmac.c a1, 1, 16, 24, 8\n"
            + "\n".join(f"addi t0, zero, {i}" for i in range(100))
            + "\nhalt"
        )
        assert cycles(prog, cmem_queue_size=2) < cycles(prog, cmem_queue_size=0)

    def test_queue_sizes_monotone(self):
        prog = self.mac_burst(14)
        c0 = cycles(prog, cmem_queue_size=0)
        c1 = cycles(prog, cmem_queue_size=1)
        c2 = cycles(prog, cmem_queue_size=2)
        assert c0 >= c1 >= c2

    def test_slices_overlap_in_time(self):
        """Seven MACs on seven slices finish far sooner than serialized."""
        prog = "\n".join(f"mac.c a{i % 4}, {i + 1}, 0, 8, 8" for i in range(7))
        total = cycles(prog + "\nhalt", cmem_queue_size=2)
        assert total < 7 * 64  # serial would be >= 448

    def test_same_slice_serializes(self):
        prog = (
            "mac.c a0, 1, 0, 8, 8\nmac.c a1, 1, 16, 24, 8\n"
            "mac.c a2, 1, 32, 40, 8\nhalt"
        )
        assert cycles(prog, cmem_queue_size=4) >= 3 * 64

    def test_second_writeback_port_helps(self):
        prog = self.mac_burst(14)
        assert cycles(prog, writeback_ports=2) <= cycles(prog, writeback_ports=1)

    def test_mac_result_raw_dependency(self):
        dep = cycles("mac.c a0, 1, 0, 8, 8\nadd a1, a0, a0\nhalt")
        assert dep >= 64


class TestConfigValidation:
    def test_negative_queue(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(cmem_queue_size=-1)

    def test_zero_wb_ports(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(writeback_ports=0)

    def test_runaway_guard(self):
        core = Core(PipelineConfig(max_cycles=100))
        with pytest.raises(SimulationError):
            core.run("loop: j loop")


class TestCategoryAttribution:
    def test_cycles_attributed_to_categories(self):
        from repro.riscv.assembler import assemble

        program = assemble("li a0, 1\nmul a1, a0, a0\nadd a2, a1, a1\nhalt")
        program[0].category = "setup"
        program[1].category = "compute"
        core = Core()
        pipeline_stats = core.run(program)
        assert pipeline_stats.category_cycles["setup"] >= 1
        assert "compute" in pipeline_stats.category_cycles
        assert "other" in pipeline_stats.category_cycles
