"""Static verifier over assembled MAICC programs.

Consumes a ``List[Instruction]`` (from :func:`repro.riscv.assembler.assemble`
or :meth:`repro.core.conv_kernel.ConvKernelGenerator.instructions`) and,
*without executing it*, checks the invariants the paper's kernels rely on:

1. program structure — decodable opcodes, resolved in-range branch
   targets, no path that falls off the end, no unreachable code;
2. register hazards — a symbolic replay of the issue scoreboard flags
   long RAW/WAW stalls (advisories the static scheduler can hide), plus
   CFG dataflow for dead writes and use-before-def;
3. CMem legality — slice/row operands inside the 8x(64x256b) geometry,
   slice 0 reserved for the transpose buffer (no MAC.C), Table 2 operand
   widths within the 32-bit word granularity, overlap rules for MAC.C and
   same-slice Move.C;
4. lock protocol — remote row transfers in programs that use the
   Algorithm-1 ``p``/``nextp`` vector locks must sit behind an acquire,
   and acquired locks must be released;
5. memory map — statically known ``imm(zero)`` accesses must land in a
   mapped Table 1 region, aligned to the access size.

The rule catalog lives in :mod:`repro.analysis.rules` and is documented in
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set

from repro.analysis.cfg import (
    DIRECT_BRANCHES,
    ControlFlowGraph,
    build_cfg,
    compute_defined,
    compute_liveness,
)
from repro.analysis.diagnostics import LintReport
from repro.analysis.rules import rule
from repro.cmem.geometry import COLS, LANES, ROWS, SLICES
from repro.cmem.isa import MAX_OPERAND_BITS
from repro.errors import CMemError, DecodeError, MemoryMapError
from repro.riscv.isa import FunctionalUnit, Instruction, instr_reads, instr_write
from repro.riscv.memory import MemoryMap
from repro.riscv.registers import reg_name
from repro.riscv.scoreboard import Scoreboard

_ATOMIC_OPS = frozenset({"amoswap.w", "amoadd.w", "lr.w", "sc.w"})
_REMOTE_ROW_OPS = frozenset({"loadrow.rc", "storerow.rc"})
_ACCESS_SIZE = {
    "lw": 4, "sw": 4, "lh": 2, "lhu": 2, "sh": 2, "lb": 1, "lbu": 1, "sb": 1,
    "amoswap.w": 4, "amoadd.w": 4, "lr.w": 4, "sc.w": 4,
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the verifier.  The CMem geometry it checks against is
    :mod:`repro.cmem.geometry`'s."""

    # Minimum stall (cycles) before a RAW/WAW advisory is emitted.
    stall_threshold: int = 8
    # Registers assumed live-in at the program entry (x0 always is).
    assume_defined: FrozenSet[int] = frozenset()


class KernelVerifier:
    """One verification pass over one program."""

    def __init__(
        self,
        program: Sequence[Instruction],
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.program = list(program)
        self.config = config or AnalysisConfig()
        self.report = LintReport(program_length=len(self.program))
        self._bad_decode: Set[int] = set()

    # -- helpers ---------------------------------------------------------------

    def _emit(self, rule_id: str, message: str, index: int) -> None:
        instr = self.program[index] if 0 <= index < len(self.program) else None
        self.report.add(
            rule(rule_id).diag(
                message,
                index=index,
                opcode=instr.opcode if instr is not None else "",
                source_line=instr.source_line if instr is not None else -1,
            )
        )

    # -- pass driver -----------------------------------------------------------

    def verify(self) -> LintReport:
        self._check_decode()
        cfg = build_cfg(self.program)
        self._check_control_flow(cfg)
        self._check_cmem_rules()
        self._check_memory_rules()
        self._check_lock_protocol()
        self._check_hazards(cfg)
        return self.report

    # -- 1. structure ----------------------------------------------------------

    def _check_decode(self) -> None:
        for i, instr in enumerate(self.program):
            try:
                instr.spec
            except DecodeError:
                self._bad_decode.add(i)
                self._emit("PROG101", f"unknown opcode {instr.opcode!r}", i)

    def _check_control_flow(self, cfg: ControlFlowGraph) -> None:
        n = len(self.program)
        for i, instr in enumerate(self.program):
            if i in self._bad_decode:
                continue
            if instr.opcode in DIRECT_BRANCHES:
                if instr.target is None:
                    self._emit("PROG102", "branch target was never resolved", i)
                elif not 0 <= instr.target < n:
                    self._emit(
                        "PROG102",
                        f"branch target {instr.target} outside [0, {n})",
                        i,
                    )
        reachable = cfg.reachable()
        for block in cfg.blocks:
            last = self.program[block.end - 1]
            terminal = last.opcode in ("halt", "j", "jal")
            if (
                block.index in reachable
                and block.end == n
                and not terminal
                and last.opcode != "jalr"
            ):
                self._emit(
                    "PROG103",
                    "control can run past the last instruction "
                    "(missing halt or backward jump)",
                    block.end - 1,
                )
            if block.index not in reachable:
                self._emit(
                    "PROG104",
                    f"instructions {block.start}..{block.end - 1} are "
                    "unreachable from the entry",
                    block.start,
                )

    # -- 3. CMem legality ------------------------------------------------------

    def _slice_ok(self, s: int, index: int, what: str) -> bool:
        if not 0 <= s < SLICES:
            self._emit("CMEM301", f"{what} {s} outside [0, {SLICES})", index)
            return False
        return True

    def _row_ok(self, row: int, span: int, index: int, what: str) -> bool:
        if not (0 <= row and row + span <= ROWS):
            self._emit(
                "CMEM303",
                f"{what} rows [{row}, {row + span}) outside the "
                f"{ROWS}-row slice",
                index,
            )
            return False
        return True

    def _width_ok(self, n: int, index: int) -> bool:
        if not 1 <= n <= MAX_OPERAND_BITS:
            self._emit(
                "CMEM304",
                f"operand width n={n} outside [1, {MAX_OPERAND_BITS}]",
                index,
            )
            return False
        return True

    def _check_cmem_rules(self) -> None:
        for i, instr in enumerate(self.program):
            if i in self._bad_decode or instr.spec.cmem_op is None:
                continue
            cm = instr.cm
            op = instr.opcode
            if op in ("mac.c", "macu.c"):
                s = cm["slice"]
                if self._slice_ok(s, i, "slice") and s == 0:
                    self._emit(
                        "CMEM302",
                        "MAC.C on slice 0 (reserved transpose buffer); "
                        "compute slices are 1+",
                        i,
                    )
                if self._width_ok(cm["n"], i):
                    n = cm["n"]
                    a_ok = self._row_ok(cm["row_a"], n, i, "operand A")
                    b_ok = self._row_ok(cm["row_b"], n, i, "operand B")
                    if a_ok and b_ok:
                        a, b = cm["row_a"], cm["row_b"]
                        if not (a + n <= b or b + n <= a):
                            self._emit(
                                "CMEM305",
                                f"operand row ranges [{a}, {a + n}) and "
                                f"[{b}, {b + n}) overlap",
                                i,
                            )
            elif op == "move.c":
                src_ok = self._slice_ok(cm["src_slice"], i, "source slice")
                dst_ok = self._slice_ok(cm["dst_slice"], i, "destination slice")
                if self._width_ok(cm["n"], i):
                    n = cm["n"]
                    s_ok = self._row_ok(cm["src_row"], n, i, "source")
                    d_ok = self._row_ok(cm["dst_row"], n, i, "destination")
                    if (
                        src_ok and dst_ok and s_ok and d_ok
                        and cm["src_slice"] == cm["dst_slice"]
                    ):
                        a, b = cm["src_row"], cm["dst_row"]
                        if not (a + n <= b or b + n <= a) and a != b:
                            self._emit(
                                "CMEM306",
                                f"same-slice move rows [{a}, {a + n}) and "
                                f"[{b}, {b + n}) overlap",
                                i,
                            )
            elif op == "setrow.c":
                self._slice_ok(cm["slice"], i, "slice")
                self._row_ok(cm["row"], 1, i, "row")
                if cm["value"] not in (0, 1):
                    self._emit(
                        "CMEM307",
                        f"SetRow.C value {cm['value']} is not 0 or 1",
                        i,
                    )
            elif op == "shiftrow.c":
                self._slice_ok(cm["slice"], i, "slice")
                self._row_ok(cm["row"], 1, i, "row")
                if abs(cm["words"]) >= LANES:
                    self._emit(
                        "CMEM308",
                        f"shift of {cm['words']} words >= the "
                        f"{COLS}-bit row ({LANES} words)",
                        i,
                    )
            elif op in _REMOTE_ROW_OPS:
                self._slice_ok(cm["slice"], i, "slice")
                self._row_ok(cm["row"], 1, i, "row")
            elif op == "setcsr.c":
                self._slice_ok(cm["slice"], i, "slice")
                if cm["mask"] >> LANES:
                    self._emit(
                        "CMEM309",
                        f"CSR mask {cm['mask']:#x} has bits above the {LANES} "
                        "column-group lanes (hardware truncates)",
                        i,
                    )

    # -- 5. memory map ---------------------------------------------------------

    def _check_memory_rules(self) -> None:
        for i, instr in enumerate(self.program):
            if i in self._bad_decode:
                continue
            spec = instr.spec
            if spec.cmem_op is not None or not (spec.is_load or spec.is_store):
                continue
            if instr.rs1 not in (None, 0):
                continue  # address not statically known
            addr = instr.imm
            try:
                MemoryMap.region_of(addr)
            except MemoryMapError:
                self._emit(
                    "MEM501", f"address {addr:#x} is outside the memory map", i
                )
                continue
            size = _ACCESS_SIZE.get(instr.opcode, 1)
            if addr % size:
                self._emit(
                    "MEM502",
                    f"address {addr:#x} not aligned to the {size}-byte access",
                    i,
                )

    # -- 4. lock protocol ------------------------------------------------------

    def _check_lock_protocol(self) -> None:
        guards = [
            i
            for i, instr in enumerate(self.program)
            if i not in self._bad_decode and instr.opcode in _ATOMIC_OPS
        ]
        if not guards:
            return  # single-owner streaming protocol; nothing to check
        first_guard = guards[0]
        for i, instr in enumerate(self.program):
            if instr.opcode in _REMOTE_ROW_OPS and i < first_guard:
                self._emit(
                    "LOCK401",
                    "remote row transfer before the first vector-lock "
                    "acquire; the p/nextp protocol does not protect it",
                    i,
                )
        last_guard = guards[-1]
        released = any(
            instr.spec.is_store
            for i, instr in enumerate(self.program)
            if i > last_guard and i not in self._bad_decode
        )
        if not released:
            self._emit(
                "LOCK402",
                "no store follows the last lock acquire; the lock is "
                "never released",
                last_guard,
            )

    # -- 2. hazards ------------------------------------------------------------

    def _check_hazards(self, cfg: ControlFlowGraph) -> None:
        reachable = cfg.reachable()
        self._replay_scoreboard(cfg, reachable)
        if cfg.has_indirect:
            return  # dataflow facts unsound under indirect jumps
        self._check_dead_writes(cfg, reachable)
        self._check_use_before_def(cfg, reachable)

    def _replay_scoreboard(self, cfg: ControlFlowGraph, reachable: Set[int]) -> None:
        """Symbolic per-block scoreboard replay flagging long stalls."""
        threshold = self.config.stall_threshold
        for block in cfg.blocks:
            if block.index not in reachable:
                continue
            sb = Scoreboard()
            producer: Dict[int, int] = {}
            fetch = 0
            for i in range(block.start, block.end):
                if i in self._bad_decode:
                    continue
                instr = self.program[i]
                issue = fetch
                worst_wait, worst_reg = 0, -1
                for r in instr_reads(instr):
                    wait = sb.ready_time(r) - issue
                    if wait > worst_wait:
                        worst_wait, worst_reg = wait, r
                    issue = max(issue, sb.ready_time(r))
                if worst_wait >= threshold:
                    self._emit(
                        "HAZ201",
                        f"waits {worst_wait} cycles for {reg_name(worst_reg)} "
                        f"from instruction {producer.get(worst_reg, '?')}",
                        i,
                    )
                rd = instr_write(instr)
                if rd is not None:
                    wait = sb.write_time(rd) - issue
                    if wait >= threshold:
                        self._emit(
                            "HAZ202",
                            f"overwrite of {reg_name(rd)} stalls {wait} cycles "
                            f"behind in-flight write from instruction "
                            f"{producer.get(rd, '?')}",
                            i,
                        )
                    issue = max(issue, sb.write_time(rd))
                    try:
                        latency = instr.latency()
                    except CMemError:
                        latency = 1  # illegal width: CMEM304 already emitted
                    extra = 1 if instr.spec.unit is FunctionalUnit.CMEM else 0
                    sb.set_ready(rd, issue + latency + extra)
                    producer[rd] = i
                fetch = issue + 1

    def _check_dead_writes(self, cfg: ControlFlowGraph, reachable: Set[int]) -> None:
        _, live_out = compute_liveness(cfg)
        for block in cfg.blocks:
            if block.index not in reachable:
                continue
            live = set(live_out[block.index])
            for i in reversed(range(block.start, block.end)):
                instr = self.program[i]
                if i in self._bad_decode:
                    continue
                rd = instr_write(instr)
                if rd is not None and not instr.spec.is_branch:
                    if rd not in live:
                        self._emit(
                            "HAZ203",
                            f"value written to {reg_name(rd)} is never read",
                            i,
                        )
                    live.discard(rd)
                for r in instr_reads(instr):
                    live.add(r)

    def _check_use_before_def(
        self, cfg: ControlFlowGraph, reachable: Set[int]
    ) -> None:
        defined_in = compute_defined(cfg, self.config.assume_defined)
        for block in cfg.blocks:
            if block.index not in reachable:
                continue
            defined = set(defined_in[block.index])
            for i in range(block.start, block.end):
                if i in self._bad_decode:
                    continue
                instr = self.program[i]
                for r in instr_reads(instr):
                    if r not in defined:
                        self._emit(
                            "HAZ204",
                            f"{reg_name(r)} may be read before any definition",
                            i,
                        )
                        defined.add(r)  # report each register once per block
                rd = instr_write(instr)
                if rd is not None:
                    defined.add(rd)


def verify_program(
    program: Sequence[Instruction],
    config: Optional[AnalysisConfig] = None,
) -> LintReport:
    """Run the full static verification pass over an instruction list."""
    return KernelVerifier(program, config).verify()
