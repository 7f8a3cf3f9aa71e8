"""Static list scheduling with a predictive cycle model.

Sec. 3.3's second scheduling approach: since CMem latencies and data
dependences are known after "compilation", independent instructions can be
moved into the delay slots of multi-cycle CMem ops at compile time.  The
reorder itself is the dependence-safe list scheduler of
:func:`repro.core.scheduler.static_schedule`; this module adds what a
compiler needs to *trust* it:

* :func:`estimate_cycles` — the :class:`repro.riscv.pipeline.Pipeline`
  itself (scoreboard RAW/WAW, the CMem issue queue, the unpipelined
  divider, write-back ports, the drain) run on statically decoded
  results, so it needs no executor and no data.  For branch-free
  programs with statically resolvable addresses — every unrolled
  Algorithm-1 kernel — the prediction is *exact*: it reproduces the
  simulated cycle count bit-for-bit, which
  ``tests/analysis/test_scheduler.py`` pins against the pipeline.
* :func:`schedule_kernel` — reorder, re-verify (the scheduled program
  must introduce no new lint errors), and report predicted stall savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.verifier import AnalysisConfig, verify_program
from repro.core.scheduler import static_schedule
from repro.errors import MemoryMapError, SchedulingError
from repro.riscv.executor import ExecResult
from repro.riscv.isa import FunctionalUnit, Instruction, instr_slices
from repro.riscv.memory import AddressRegion, MemoryMap
from repro.riscv.pipeline import Pipeline, PipelineConfig
from repro.telemetry import NULL_SINK


@dataclass(frozen=True)
class TimingEstimate:
    """Predicted execution profile of one program."""

    cycles: int
    instructions: int
    raw_stall_cycles: int
    waw_stall_cycles: int
    structural_stall_cycles: int
    wb_stall_cycles: int
    # True when the model provably matches the pipeline: no branches and
    # every memory access's region statically known.
    exact: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "raw_stall_cycles": self.raw_stall_cycles,
            "waw_stall_cycles": self.waw_stall_cycles,
            "structural_stall_cycles": self.structural_stall_cycles,
            "wb_stall_cycles": self.wb_stall_cycles,
            "exact": self.exact,
        }


def _static_region(instr: Instruction) -> Optional[AddressRegion]:
    """Region of a load/store when the address is statically known."""
    if instr.rs1 in (None, 0):
        try:
            return MemoryMap.region_of(instr.imm)
        except MemoryMapError:
            return None
    return None


class _StaticDecode:
    """Stands in for the executor: each instruction's result from decode
    alone.  Branches fall through, memory regions come from
    :func:`_static_region` (unknown addresses count as local), and CMem
    slices from :func:`instr_slices`.  ``exact`` turns False on a branch
    or an unknown address."""

    def __init__(self) -> None:
        self.exact = True

    def execute(self, instr: Instruction, pc: int) -> ExecResult:
        spec = instr.spec
        region: Optional[AddressRegion] = None
        if spec.unit is FunctionalUnit.MEM:
            region = _static_region(instr)
            if region is None and instr.rs1 not in (None, 0):
                self.exact = False
        if spec.is_branch:
            self.exact = False
        return ExecResult(
            next_pc=pc + 1,
            mem_region=region,
            halted=instr.opcode == "halt",
            cmem_slices=instr_slices(instr) if spec.unit is FunctionalUnit.CMEM else (),
        )


def estimate_cycles(
    program: Sequence[Instruction],
    config: Optional[PipelineConfig] = None,
) -> TimingEstimate:
    """Predict the pipeline cycle count of a program without executing it.

    Runs :class:`repro.riscv.pipeline.Pipeline` itself — its issue,
    retire and drain rules — on statically decoded results instead of
    executed ones, walking the instruction list once in order.  Branches
    are assumed not taken and unknown-address memory accesses local, and
    either assumption marks the estimate inexact.
    """
    decode = _StaticDecode()
    pipeline = Pipeline(
        list(program), decode, config or PipelineConfig(), telemetry=NULL_SINK
    )
    stats = pipeline.run(max_instructions=len(program)) if program else pipeline.stats
    return TimingEstimate(
        cycles=stats.cycles,
        instructions=stats.instructions,
        raw_stall_cycles=stats.raw_stall_cycles,
        waw_stall_cycles=stats.waw_stall_cycles,
        structural_stall_cycles=stats.structural_stall_cycles,
        wb_stall_cycles=stats.wb_stall_cycles,
        exact=decode.exact,
    )


@dataclass
class ScheduleReport:
    """Outcome of one static-scheduling pass."""

    baseline: TimingEstimate
    scheduled: TimingEstimate
    program: List[Instruction]

    @property
    def predicted_saving(self) -> int:
        return self.baseline.cycles - self.scheduled.cycles

    @property
    def speedup(self) -> float:
        if self.scheduled.cycles == 0:
            return 1.0
        return self.baseline.cycles / self.scheduled.cycles

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline.to_dict(),
            "scheduled": self.scheduled.to_dict(),
            "predicted_saving": self.predicted_saving,
            "speedup": self.speedup,
        }


def schedule_kernel(
    program: Sequence[Instruction],
    config: Optional[PipelineConfig] = None,
    *,
    max_window: int = 400,
    analysis_config: Optional[AnalysisConfig] = None,
) -> ScheduleReport:
    """List-schedule a program and predict the stall-cycle savings.

    The scheduled program is re-verified: a reorder that introduces a lint
    *error* the input did not have is a scheduler bug and raises
    :class:`~repro.errors.SchedulingError` rather than silently emitting a
    broken kernel.
    """
    scheduled = static_schedule(program, max_window=max_window)
    before = verify_program(program, analysis_config)
    after = verify_program(scheduled, analysis_config)
    if len(after.errors) > len(before.errors):
        raise SchedulingError(
            "static schedule introduced lint errors: "
            + "; ".join(d.render() for d in after.errors)
        )
    return ScheduleReport(
        baseline=estimate_cycles(program, config),
        scheduled=estimate_cycles(scheduled, config),
        program=scheduled,
    )
