"""Cycle-level timing model of the 5-stage MAICC core pipeline.

The model is execution-driven: instructions are executed functionally in
program order (sequential semantics), while issue times are computed from
a scoreboard (RAW/WAW), structural constraints (one instruction issued per
cycle, an unpipelined divider, the CMem issue queue of Sec. 3.3), the
number of register-file write-back ports, and a taken-branch flush penalty.

The CMem is modeled as the paper describes: a multi-cycle functional unit
fronted by a small FIFO issue queue.  A CMem instruction leaves the ID
stage as soon as a queue slot is free (a slot frees when its occupant
*starts* executing); occupants dispatch in FIFO order when their target
slices are idle.  With ``cmem_queue_size = 0`` the instruction stalls in ID
until the CMem itself is free — the baseline column of Table 5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Protocol

from repro.cmem.geometry import SLICES
from repro.errors import ConfigurationError, SimulationError
from repro.riscv.executor import ExecResult
from repro.riscv.isa import FunctionalUnit, Instruction, instr_slices
from repro.riscv.memory import AddressRegion
from repro.riscv.scoreboard import Scoreboard
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.telemetry.hooks import publish_stats


@dataclass(frozen=True)
class PipelineConfig:
    """Timing knobs; defaults are the paper's design point."""

    cmem_queue_size: int = 2
    writeback_ports: int = 2
    branch_penalty: int = 2
    remote_latency: int = 18  # NoC round-trip for a remote load (cycles)
    remote_store_latency: int = 4  # fire-and-forget injection occupancy
    dram_latency: int = 60  # LLC + DRAM access seen from a core
    max_cycles: int = 500_000_000

    def __post_init__(self) -> None:
        if self.cmem_queue_size < 0:
            raise ConfigurationError("cmem_queue_size must be >= 0")
        if self.writeback_ports < 1:
            raise ConfigurationError("writeback_ports must be >= 1")


@dataclass
class PipelineStats:
    """Counters collected during one run."""

    cycles: int = 0
    instructions: int = 0
    raw_stall_cycles: int = 0
    waw_stall_cycles: int = 0
    structural_stall_cycles: int = 0
    wb_stall_cycles: int = 0
    branch_flush_cycles: int = 0
    cmem_instructions: int = 0
    cmem_busy_cycles: int = 0
    #: Published as ``<prefix>/category/<category>`` counters.
    category_cycles: Dict[str, int] = field(
        default_factory=dict, metadata={"metric": "category"}
    )

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def attribute(self, category: str, cycles: int) -> None:
        if cycles <= 0:
            return
        key = category or "other"
        self.category_cycles[key] = self.category_cycles.get(key, 0) + cycles


class CMemIssueQueue:
    """Issue-queue + per-slice occupancy model of the CMem.

    The pipeline's only CMem model: the static timing predictor of
    :mod:`repro.analysis.scheduler` runs :class:`Pipeline` itself on
    statically decoded results, so the two cannot drift apart.
    """

    def __init__(self, queue_size: int) -> None:
        self.queue_size = queue_size
        # Start times of previously accepted CMem ops, newest last; an op's
        # queue slot frees when it starts, so acceptance is gated on the
        # start time of the op ``queue_size`` positions back.
        self.start_times: Deque[int] = deque()
        self.slice_free = [0] * SLICES
        self.last_start = -1
        self.busy_cycles = 0

    def earliest_issue(self, issue_time: int) -> int:
        """When can a new CMem instruction leave the ID stage?"""
        if self.queue_size == 0:
            # No queue: ID stalls until the op can start immediately.
            return issue_time
        if len(self.start_times) < self.queue_size:
            return issue_time
        # Wait until the oldest queued op has started.
        gate = self.start_times[-self.queue_size]
        return max(issue_time, gate)

    def dispatch(self, ready: int, slices: tuple, duration: int) -> int:
        """Dispatch an op that entered the queue at ``ready``; returns start."""
        start = max(ready, self.last_start + 1)
        for s in slices:
            start = max(start, self.slice_free[s])
        for s in slices:
            self.slice_free[s] = start + duration
        self.last_start = start
        self.start_times.append(start)
        if len(self.start_times) > 64:
            self.start_times.popleft()
        self.busy_cycles += duration
        return start

    def all_free_time(self) -> int:
        return max(self.slice_free)


class ResultSource(Protocol):
    """Where the pipeline gets each instruction's timing-relevant result:
    an :class:`~repro.riscv.executor.Executor`, or static decode."""

    def execute(self, instr: Instruction, pc: int) -> ExecResult: ...


class Pipeline:
    """Executes a program and reports cycle-accurate-style timing."""

    def __init__(
        self,
        program: List[Instruction],
        executor: ResultSource,
        config: PipelineConfig = PipelineConfig(),
        *,
        telemetry: Optional[TelemetrySink] = None,
        track: str = "core/0",
    ) -> None:
        self.program = program
        self.executor = executor
        self.config = config
        self.stats = PipelineStats()
        self.scoreboard = Scoreboard()
        self.cmem_unit = CMemIssueQueue(config.cmem_queue_size)
        self.muldiv_free = 0
        self.wb_slots: Dict[int, int] = {}
        self.pc = 0
        self.next_fetch_time = 0
        self.halted = False
        self.telemetry = telemetry if telemetry is not None else _current_telemetry()
        self.track = track
        self._trace_base = 0

    # -- helpers -------------------------------------------------------------

    def _reserve_wb(self, completion: int) -> int:
        """Find the first cycle >= completion with a free write-back port."""
        cycle = completion
        ports = self.config.writeback_ports
        while self.wb_slots.get(cycle, 0) >= ports:
            cycle += 1
        self.wb_slots[cycle] = self.wb_slots.get(cycle, 0) + 1
        return cycle

    def _source_ready(self, instr: Instruction) -> int:
        ready = 0
        spec = instr.spec
        if spec.reads_rs1 and instr.rs1:
            ready = max(ready, self.scoreboard.ready_time(instr.rs1))
        if spec.reads_rs2 and instr.rs2:
            ready = max(ready, self.scoreboard.ready_time(instr.rs2))
        return ready

    # -- main loop ------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> PipelineStats:
        """Run until ``halt`` (or the instruction/cycle guard trips)."""
        executed = 0
        last_issue = -1
        telemetry = self.telemetry
        if telemetry.enabled:
            assert telemetry.trace is not None
            # Re-runs on the same core lay out sequentially on its track.
            self._trace_base = max(
                telemetry.trace.cursor(self.track),
                telemetry.trace.cursor(f"{self.track}/cmem"),
            )
        while not self.halted:
            if self.pc < 0 or self.pc >= len(self.program):
                raise SimulationError(f"PC {self.pc} outside the program")
            instr = self.program[self.pc]
            issue = self._issue_time(instr)
            result = self.executor.execute(instr, self.pc)
            self._retire(instr, issue, result)
            # Attribute the cycles elapsed since the previous issue to this
            # instruction's category (issue-slot accounting: stalls are
            # charged to the instruction that waited).
            self.stats.attribute(instr.category, issue - last_issue)
            last_issue = issue
            executed += 1
            self.stats.instructions = executed
            if result.halted:
                self.halted = True
                break
            self.pc = result.next_pc
            if result.branch_taken:
                self.next_fetch_time = issue + 1 + self.config.branch_penalty
                self.stats.branch_flush_cycles += self.config.branch_penalty
            else:
                self.next_fetch_time = issue + 1
            if max_instructions is not None and executed >= max_instructions:
                break
            if self.next_fetch_time > self.config.max_cycles:
                raise SimulationError("cycle limit exceeded; runaway program?")
        # Total run time includes draining the CMem and outstanding writes.
        drain = max(
            self.next_fetch_time,
            self.cmem_unit.all_free_time(),
            self.scoreboard.horizon(),
        )
        self.stats.cycles = drain
        self.stats.cmem_busy_cycles = self.cmem_unit.busy_cycles
        if telemetry.enabled:
            assert telemetry.trace is not None
            telemetry.trace.complete(
                self.track,
                "kernel",
                self._trace_base,
                drain,
                args={
                    "instructions": self.stats.instructions,
                    "ipc": self.stats.ipc,
                },
            )
            prefix = f"{self.track}/pipeline"
            publish_stats(telemetry, prefix, self.stats)
            assert telemetry.registry is not None
            telemetry.registry.gauge(f"{prefix}/ipc").set(self.stats.ipc)
        return self.stats

    def _issue_time(self, instr: Instruction) -> int:
        spec = instr.spec
        issue = self.next_fetch_time

        source_ready = self._source_ready(instr)
        if source_ready > issue:
            self.stats.raw_stall_cycles += source_ready - issue
            issue = source_ready

        if spec.writes_rd and instr.rd:
            waw_ready = self.scoreboard.write_time(instr.rd)
            if waw_ready > issue:
                self.stats.waw_stall_cycles += waw_ready - issue
                issue = waw_ready

        if spec.unit is FunctionalUnit.MULDIV:
            if self.muldiv_free > issue:
                self.stats.structural_stall_cycles += self.muldiv_free - issue
                issue = self.muldiv_free
        elif spec.unit is FunctionalUnit.CMEM:
            gated = self.cmem_unit.earliest_issue(issue)
            if self.cmem_unit.queue_size == 0:
                # No queue: the op must start the cycle after issue, so ID
                # stalls until its target slices are free (decoded from the
                # instruction's CMem operands) and dispatch order allows it.
                for s in instr_slices(instr):
                    gated = max(gated, self.cmem_unit.slice_free[s] - 1)
                gated = max(gated, self.cmem_unit.last_start)
            if gated > issue:
                self.stats.structural_stall_cycles += gated - issue
                issue = gated
        return issue

    def _retire(self, instr: Instruction, issue: int, result) -> None:
        spec = instr.spec
        latency = instr.latency()

        if spec.unit is FunctionalUnit.CMEM:
            self.stats.cmem_instructions += 1
            start = self.cmem_unit.dispatch(issue + 1, result.cmem_slices, latency)
            completion = start + latency
            if instr.opcode == "loadrow.rc":
                completion += self.config.remote_latency
            elif instr.opcode == "storerow.rc":
                completion += self.config.remote_store_latency
            if self.telemetry.enabled:
                # One span per CMem dispatch; starts are strictly
                # increasing, so the cmem track stays monotone.
                assert self.telemetry.trace is not None
                self.telemetry.trace.complete(
                    f"{self.track}/cmem",
                    instr.opcode,
                    self._trace_base + start,
                    latency,
                )
        else:
            if spec.unit is FunctionalUnit.MEM and result.mem_region is not None:
                if result.mem_region is AddressRegion.REMOTE_CORE:
                    latency = (
                        self.config.remote_latency
                        if (spec.is_load or spec.is_atomic)
                        else self.config.remote_store_latency
                    )
                elif result.mem_region is AddressRegion.DRAM:
                    latency = self.config.dram_latency
            completion = issue + latency
            if spec.unit is FunctionalUnit.MULDIV:
                self.muldiv_free = completion

        if spec.writes_rd and instr.rd:
            wb_cycle = self._reserve_wb(completion)
            if wb_cycle > completion:
                self.stats.wb_stall_cycles += wb_cycle - completion
            self.scoreboard.set_ready(instr.rd, wb_cycle)
