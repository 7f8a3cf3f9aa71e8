"""Static instruction scheduling (Sec. 3.3, second approach).

After "compilation" the latency and data dependences of every CMem
instruction are known, so independent instructions can be moved into the
delay slots of multi-cycle CMem operations.  This module implements a
dependence-safe greedy list scheduler:

* programs are split at control-flow instructions (and capped windows, so
  fully unrolled kernels schedule in near-linear time);
* within a window a dependence DAG is built over register (RAW/WAR/WAW),
  memory (static disambiguation of ``imm(zero)`` addresses, conservative
  otherwise) and CMem-slice hazards;
* ready instructions are issued greedily, preferring the one that can
  start earliest and, on ties, the one with the longest dependent chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SchedulingError
from repro.riscv.isa import (
    FunctionalUnit,
    Instruction,
    instr_reads,
    instr_slices,
    instr_write,
)


@dataclass
class _Node:
    index: int
    instr: Instruction
    succs: Set[int] = field(default_factory=set)
    preds: Set[int] = field(default_factory=set)
    priority: int = 0


def _static_address(instr: Instruction) -> Optional[int]:
    """Address of a memory access when statically known (imm(zero))."""
    if instr.rs1 == 0:
        return instr.imm
    return None


def _cmem_writes_slice(instr: Instruction) -> bool:
    """Does this op modify slice contents (vs only reading rows)?"""
    return instr.opcode in (
        "move.c", "setrow.c", "shiftrow.c", "loadrow.rc", "setcsr.c"
    )


def _split_windows(
    program: Sequence[Instruction], max_window: int
) -> List[Tuple[int, int]]:
    """(start, end) windows that never span control flow."""
    windows: List[Tuple[int, int]] = []
    start = 0
    for i, instr in enumerate(program):
        boundary = instr.spec.is_branch or instr.opcode in ("halt", "ecall")
        if boundary:
            if i > start:
                windows.append((start, i))
            windows.append((i, i + 1))  # the branch itself, pinned
            start = i + 1
        elif i + 1 - start >= max_window:
            windows.append((start, i + 1))
            start = i + 1
    if start < len(program):
        windows.append((start, len(program)))
    return windows


def _build_dag(block: Sequence[Instruction]) -> List[_Node]:
    nodes = [_Node(index=i, instr=instr) for i, instr in enumerate(block)]
    last_writer: Dict[int, int] = {}
    readers_since_write: Dict[int, List[int]] = {}
    mem_stores: List[Tuple[int, Optional[int]]] = []
    mem_loads: List[Tuple[int, Optional[int]]] = []
    slice_last_write: Dict[int, int] = {}
    slice_readers: Dict[int, List[int]] = {}
    last_remote: Optional[int] = None

    def add_edge(src: int, dst: int) -> None:
        if src != dst:
            nodes[src].succs.add(dst)
            nodes[dst].preds.add(src)

    for i, node in enumerate(nodes):
        instr = node.instr
        spec = instr.spec
        # Register dependences.
        for reg in instr_reads(instr):
            if reg in last_writer:
                add_edge(last_writer[reg], i)  # RAW
            readers_since_write.setdefault(reg, []).append(i)
        rd = instr_write(instr)
        if rd is not None:
            if rd in last_writer:
                add_edge(last_writer[rd], i)  # WAW
            for reader in readers_since_write.get(rd, ()):
                add_edge(reader, i)  # WAR
            last_writer[rd] = i
            readers_since_write[rd] = []
        # Memory dependences (data memory + slice-0 MMIO).
        if spec.is_store or spec.is_load:
            addr = _static_address(instr)
            if spec.is_store:
                for j, prior in mem_stores + mem_loads:
                    if addr is None or prior is None or prior == addr:
                        add_edge(j, i)
                mem_stores.append((i, addr))
            else:
                for j, prior in mem_stores:
                    if addr is None or prior is None or prior == addr:
                        add_edge(j, i)
                mem_loads.append((i, addr))
        # CMem slice hazards.
        if spec.unit is FunctionalUnit.CMEM:
            for s in instr_slices(instr):
                if _cmem_writes_slice(instr):
                    if s in slice_last_write:
                        add_edge(slice_last_write[s], i)
                    for reader in slice_readers.get(s, ()):
                        add_edge(reader, i)
                    slice_last_write[s] = i
                    slice_readers[s] = []
                else:
                    if s in slice_last_write:
                        add_edge(slice_last_write[s], i)
                    slice_readers.setdefault(s, []).append(i)
            # Remote row transfers stay mutually ordered (NoC semantics).
            if instr.opcode in ("loadrow.rc", "storerow.rc"):
                if last_remote is not None:
                    add_edge(last_remote, i)
                last_remote = i
    return nodes


def _compute_priorities(nodes: List[_Node]) -> None:
    """Longest latency-weighted path from each node to any sink."""
    for node in reversed(nodes):
        latency = node.instr.latency()
        node.priority = latency + max(
            (nodes[s].priority for s in node.succs), default=0
        )


def _schedule_block(block: List[Instruction]) -> List[Instruction]:
    if len(block) < 2:
        return list(block)
    nodes = _build_dag(block)
    _compute_priorities(nodes)
    remaining = {node.index for node in nodes}
    pred_count = {node.index: len(node.preds) for node in nodes}
    ready = [i for i in remaining if pred_count[i] == 0]
    reg_ready: Dict[int, int] = {}
    slice_free: Dict[int, int] = {}
    scheduled: List[Instruction] = []
    time = 0
    while remaining:
        if not ready:
            raise SchedulingError("dependence cycle in straight-line code")

        def start_estimate(i: int) -> int:
            instr = nodes[i].instr
            est = time
            for reg in instr_reads(instr):
                est = max(est, reg_ready.get(reg, 0))
            if instr.spec.unit is FunctionalUnit.CMEM:
                for s in instr_slices(instr):
                    est = max(est, slice_free.get(s, 0))
            return est

        choice = min(ready, key=lambda i: (start_estimate(i), -nodes[i].priority, i))
        ready.remove(choice)
        remaining.discard(choice)
        node = nodes[choice]
        instr = node.instr
        start = max(time + 1, start_estimate(choice))
        latency = instr.latency()
        if instr.spec.unit is FunctionalUnit.CMEM:
            for s in instr_slices(instr):
                slice_free[s] = start + latency
        rd = instr_write(instr)
        if rd is not None:
            reg_ready[rd] = start + latency
        time = start
        scheduled.append(instr)
        for succ in node.succs:
            pred_count[succ] -= 1
            if pred_count[succ] == 0:
                ready.append(succ)
    return scheduled


def static_schedule(
    program: Sequence[Instruction], *, max_window: int = 400
) -> List[Instruction]:
    """Reorder a program to hide CMem latency; semantics-preserving.

    Branch targets are instruction indices, so windows additionally break
    at every target (targets must keep their position at a window start),
    and targets are remapped onto the scheduled order.  The input program
    is not mutated; scheduled instructions are shallow copies.
    """
    targets = sorted(
        {instr.target for instr in program if instr.target is not None}
    )
    # Annotate original indices so we can remap targets afterwards.
    indexed = [(i, instr) for i, instr in enumerate(program)]
    windows: List[Tuple[int, int]] = []
    cut_points = set(targets)
    for start, end in _split_windows(program, max_window):
        inner = [p for p in sorted(cut_points) if start < p < end]
        prev = start
        for p in inner:
            windows.append((prev, p))
            prev = p
        windows.append((prev, end))

    order: List[int] = []
    for start, end in windows:
        if end <= start:
            continue
        block = [instr for _, instr in indexed[start:end]]
        if len(block) == 1:
            order.append(start)
            continue
        scheduled = _schedule_block(block)
        # _schedule_block returns the same (unique) objects reordered.
        original_index = {id(instr): start + k for k, instr in enumerate(block)}
        order.extend(original_index[id(instr)] for instr in scheduled)

    if sorted(order) != list(range(len(program))):
        raise SchedulingError("scheduler dropped or duplicated instructions")
    new_index = {orig: new for new, orig in enumerate(order)}
    out: List[Instruction] = []
    for orig in order:
        src = program[orig]
        copy = Instruction(
            opcode=src.opcode, rd=src.rd, rs1=src.rs1, rs2=src.rs2,
            imm=src.imm, target=src.target, cm=dict(src.cm),
            label=src.label, source_line=src.source_line, category=src.category,
        )
        if copy.target is not None:
            copy.target = new_index[copy.target]
        out.append(copy)
    return out
