"""Control-flow graph and register def-use analyses over assembled programs.

The simulator's PC is an index into the instruction list, so basic blocks
are index ranges: leaders are the entry, every branch target, and every
instruction after a branch or ``halt``.  On top of the CFG this module
provides the two classic bit-vector dataflows the verifier needs over the
32 architectural registers:

* *liveness* (backward, may) — powers the dead-write rule;
* *defined registers* (forward, must) — powers use-before-def.

``x0`` is hard-wired and excluded from both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set

from repro.errors import DecodeError
from repro.riscv.isa import Instruction, instr_reads, instr_write
from repro.riscv.registers import NUM_REGS

# Branches whose ``target`` field must hold a resolved instruction index.
DIRECT_BRANCHES = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu", "j", "jal"})
UNCONDITIONAL = frozenset({"j", "jal"})


@dataclass
class BasicBlock:
    """One maximal straight-line region ``[start, end)``."""

    index: int
    start: int
    end: int
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class ControlFlowGraph:
    """Basic blocks plus an instruction-index -> block-index map."""

    program: Sequence[Instruction]
    blocks: List[BasicBlock]
    block_of: List[int]
    # True when the program contains an indirect jump (jalr); successor
    # sets are then incomplete and dataflow facts unsound — clients skip
    # the affected rules.
    has_indirect: bool = False

    def reachable(self) -> Set[int]:
        """Block indices reachable from the entry block."""
        if not self.blocks:
            return set()
        seen = {0}
        work = [0]
        while work:
            b = work.pop()
            for s in self.blocks[b].succs:
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return seen


def build_cfg(program: Sequence[Instruction]) -> ControlFlowGraph:
    """Split a program into basic blocks and wire successor edges."""
    n = len(program)
    if n == 0:
        return ControlFlowGraph(program=program, blocks=[], block_of=[])

    leaders = {0}
    has_indirect = False
    for i, instr in enumerate(program):
        try:
            spec = instr.spec
        except DecodeError:
            continue
        if spec.is_branch or instr.opcode == "halt":
            if i + 1 < n:
                leaders.add(i + 1)
            if instr.opcode == "jalr":
                has_indirect = True
            elif instr.target is not None and 0 <= instr.target < n:
                leaders.add(instr.target)

    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_of = [0] * n
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(BasicBlock(index=bi, start=start, end=end))
        for i in range(start, end):
            block_of[i] = bi

    for block in blocks:
        last = program[block.end - 1]
        try:
            spec = last.spec
        except DecodeError:
            spec = None
        succs: List[int] = []
        if last.opcode == "halt":
            pass
        elif spec is not None and spec.is_branch:
            if last.opcode == "jalr":
                pass  # indirect: unknown successors (has_indirect is set)
            else:
                if last.target is not None and 0 <= last.target < n:
                    succs.append(block_of[last.target])
                if last.opcode not in UNCONDITIONAL and block.end < n:
                    succs.append(block_of[block.end])
        elif block.end < n:
            succs.append(block_of[block.end])
        block.succs = sorted(set(succs))
        for s in block.succs:
            blocks[s].preds.append(block.index)

    return ControlFlowGraph(
        program=program, blocks=blocks, block_of=block_of, has_indirect=has_indirect
    )


def _block_use_def(
    cfg: ControlFlowGraph, block: BasicBlock
) -> tuple[Set[int], Set[int]]:
    """(upward-exposed uses, defs) of one block."""
    use: Set[int] = set()
    defs: Set[int] = set()
    for i in range(block.start, block.end):
        instr = cfg.program[i]
        for reg in instr_reads(instr):
            if reg not in defs:
                use.add(reg)
        rd = instr_write(instr)
        if rd is not None:
            defs.add(rd)
    return use, defs


def compute_liveness(
    cfg: ControlFlowGraph,
) -> tuple[List[Set[int]], List[Set[int]]]:
    """Per-block (live_in, live_out) register sets (backward, may)."""
    nb = len(cfg.blocks)
    use_def = [_block_use_def(cfg, b) for b in cfg.blocks]
    live_in: List[Set[int]] = [set() for _ in range(nb)]
    live_out: List[Set[int]] = [set() for _ in range(nb)]
    changed = True
    while changed:
        changed = False
        for b in reversed(range(nb)):
            out: Set[int] = set()
            for s in cfg.blocks[b].succs:
                out |= live_in[s]
            use, defs = use_def[b]
            inn = use | (out - defs)
            if out != live_out[b] or inn != live_in[b]:
                live_out[b], live_in[b] = out, inn
                changed = True
    return live_in, live_out


def compute_defined(
    cfg: ControlFlowGraph, assume_defined: FrozenSet[int] = frozenset()
) -> List[Set[int]]:
    """Per-block set of registers defined on *every* path to the block entry.

    ``assume_defined`` seeds the entry block (e.g. an ABI environment where
    ``sp``/``ra`` are pre-set); ``x0`` is always defined.
    """
    nb = len(cfg.blocks)
    all_regs = set(range(NUM_REGS))
    entry_defs = set(assume_defined) | {0}
    defined_in: List[Set[int]] = [set(all_regs) for _ in range(nb)]
    defined_out: List[Set[int]] = [set(all_regs) for _ in range(nb)]
    if nb:
        defined_in[0] = set(entry_defs)
    gen: Dict[int, Set[int]] = {
        b.index: _block_use_def(cfg, b)[1] for b in cfg.blocks
    }
    changed = True
    while changed:
        changed = False
        for b in range(nb):
            if b == 0:
                inn = set(entry_defs)
            else:
                preds = cfg.blocks[b].preds
                if preds:
                    inn = set(all_regs)
                    for p in preds:
                        inn &= defined_out[p]
                else:
                    # Unreachable block: keep top (no use-before-def noise).
                    inn = set(all_regs)
            out = inn | gen[b] | {0}
            if inn != defined_in[b] or out != defined_out[b]:
                defined_in[b], defined_out[b] = inn, out
                changed = True
    return defined_in
