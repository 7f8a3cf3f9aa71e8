"""Basic blocks, def-use, liveness, and defined-register dataflow."""

from repro.analysis.cfg import build_cfg, compute_defined, compute_liveness
from repro.riscv.assembler import assemble
from repro.riscv.isa import instr_reads, instr_write
from repro.riscv.registers import reg_index


class TestBasicBlocks:
    def test_straight_line_is_one_block(self):
        cfg = build_cfg(assemble("li a0, 1\nli a1, 2\nadd a2, a0, a1\nhalt"))
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].size == 4
        assert cfg.blocks[0].succs == []

    def test_branch_splits_blocks(self):
        cfg = build_cfg(
            assemble(
                "li a0, 3\n"
                "loop: addi a0, a0, -1\n"
                "bne a0, zero, loop\n"
                "halt"
            )
        )
        # entry | loop-body+branch | halt
        assert len(cfg.blocks) == 3
        loop = cfg.blocks[1]
        assert sorted(loop.succs) == [1, 2]  # back edge + fallthrough

    def test_jump_has_single_successor(self):
        cfg = build_cfg(assemble("j end\nli a0, 1\nend: halt"))
        assert cfg.blocks[0].succs == [2]

    def test_halt_terminates_block(self):
        cfg = build_cfg(assemble("halt\nli a0, 1\nhalt"))
        assert cfg.blocks[0].succs == []

    def test_reachability(self):
        cfg = build_cfg(assemble("j end\nli a0, 1\nend: halt"))
        assert cfg.reachable() == {0, 2}

    def test_jalr_marks_indirect(self):
        cfg = build_cfg(assemble("li a0, 4\njalr ra, a0, 0\nhalt"))
        assert cfg.has_indirect


class TestDefUse:
    def test_instr_reads_and_write(self):
        (instr,) = assemble("add a2, a0, a1")
        assert instr_reads(instr) == [reg_index("a0"), reg_index("a1")]
        assert instr_write(instr) == reg_index("a2")

    def test_x0_excluded(self):
        (instr,) = assemble("add zero, zero, zero")
        assert instr_reads(instr) == []
        assert instr_write(instr) is None

    def test_store_reads_both(self):
        (instr,) = assemble("sw a1, 0(a2)")
        assert set(instr_reads(instr)) == {reg_index("a1"), reg_index("a2")}
        assert instr_write(instr) is None


class TestLiveness:
    def test_loop_carried_register_is_live(self):
        cfg = build_cfg(
            assemble(
                "li a0, 3\n"
                "loop: addi a0, a0, -1\n"
                "bne a0, zero, loop\n"
                "halt"
            )
        )
        live_in, live_out = compute_liveness(cfg)
        a0 = reg_index("a0")
        assert a0 in live_out[0]  # entry block feeds the loop
        assert a0 in live_in[1]

    def test_dead_at_exit(self):
        cfg = build_cfg(assemble("li a0, 1\nhalt"))
        _, live_out = compute_liveness(cfg)
        assert live_out[0] == set()


class TestDefined:
    def test_entry_assumptions(self):
        cfg = build_cfg(assemble("add a0, sp, sp\nhalt"))
        sp = reg_index("sp")
        assert sp not in compute_defined(cfg)[0]
        assert sp in compute_defined(cfg, frozenset({sp}))[0]

    def test_must_reach_is_path_sensitive(self):
        # a1 is defined on only one path into the join block.
        cfg = build_cfg(
            assemble(
                "li a0, 1\n"
                "beq a0, zero, skip\n"
                "li a1, 5\n"
                "skip: add a2, a1, a0\n"
                "halt"
            )
        )
        defined_in = compute_defined(cfg)
        join = cfg.block_of[3]
        assert reg_index("a1") not in defined_in[join]
        assert reg_index("a0") in defined_in[join]
