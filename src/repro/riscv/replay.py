"""Cache-and-replay for timing-deterministic kernels.

Running the same unrolled Algorithm-1 kernel through the cycle-level
:class:`~repro.riscv.pipeline.Pipeline` repeats two kinds of work: the
*functional* execution (whose results depend on the ifmap data and must
happen every time) and the *timing* bookkeeping (scoreboard, CMem issue
queue, write-back arbitration), which for a branch-free kernel with
statically resolvable addresses is identical on every run.  The
:class:`ReplayCache` memoizes the second kind:

* On first sight of a program it asks the static predictor of
  :mod:`repro.analysis.scheduler` (the same pipeline run on statically
  decoded results) whether the kernel's timing is provably
  data-independent (``TimingEstimate.exact``: no branches, every memory
  region statically known), runs the full pipeline once, and — only if
  the measured cycle count equals the prediction bit-for-bit — caches a
  snapshot of the :class:`~repro.riscv.pipeline.PipelineStats`.  The
  double gate (proof *and* measurement) means a cache entry is never an
  approximation: replaying it returns exactly what the pipeline would
  have computed.
* On later runs of the same program object it executes the instructions
  functionally (so memory, registers, CMem contents, remote traffic, and
  CMem energy all evolve exactly as before) and returns a copy of the
  cached stats, skipping the per-instruction timing interpretation —
  the pipeline's dominant cost.

Programs are keyed by object identity: the cache holds a strong
reference to the program list, so a hit is guaranteed to be the same
instruction sequence (callers like :class:`repro.core.node.MAICCNode`
build the kernel once and rerun it per ifmap).  Ineligible programs are
remembered too, so the eligibility check is paid once.

Replay is bypassed whenever full fidelity is observably different:
telemetry-enabled runs (the pipeline emits per-kernel trace spans) and
``max_instructions``-limited runs always take the real pipeline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.riscv.executor import Executor
from repro.riscv.isa import Instruction
from repro.riscv.pipeline import Pipeline, PipelineConfig, PipelineStats


class _Entry:
    """Cached verdict for one program object."""

    __slots__ = ("program", "config", "num_slices", "stats", "hits")

    def __init__(
        self,
        program: List[Instruction],
        config: PipelineConfig,
        num_slices: int,
        stats: Optional[PipelineStats],
    ) -> None:
        # Strong reference: while the entry lives, the program object
        # cannot be collected, so its id() cannot be reused.
        self.program = program
        self.config = config
        self.num_slices = num_slices
        self.stats = stats  # None = verified ineligible for replay
        self.hits = 0


def _snapshot(stats: PipelineStats) -> PipelineStats:
    return replace(stats, category_cycles=dict(stats.category_cycles))


class ReplayCache:
    """Memoizes pipeline timing of verified data-independent kernels."""

    def __init__(self) -> None:
        self._entries: Dict[int, _Entry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _find(
        self,
        program: List[Instruction],
        config: PipelineConfig,
        num_slices: int,
    ) -> Optional[_Entry]:
        entry = self._entries.get(id(program))
        if (
            entry is not None
            and entry.program is program
            and entry.config == config
            and entry.num_slices == num_slices
        ):
            return entry
        return None

    def run(
        self,
        program: List[Instruction],
        executor: Executor,
        config: PipelineConfig,
        num_slices: int,
        *,
        track: str = "core/0",
    ) -> PipelineStats:
        """Run ``program`` with memoized timing where provably safe.

        Functionally identical to ``Pipeline(...).run()`` in every case;
        the timing interpretation is skipped only after a program has
        been proven (static predictor) *and* verified (first measured
        run) timing-deterministic.
        """
        entry = self._find(program, config, num_slices)
        if entry is not None and entry.stats is not None:
            self.hits += 1
            entry.hits += 1
            self._execute_functional(program, executor, config)
            return _snapshot(entry.stats)

        self.misses += 1
        pipeline = Pipeline(
            program, executor, config, num_cmem_slices=num_slices, track=track
        )
        stats = pipeline.run()
        if entry is None:
            self._entries[id(program)] = _Entry(
                program,
                config,
                num_slices,
                _snapshot(stats) if self._replayable(
                    program, config, num_slices, stats
                ) else None,
            )
        return stats

    def _replayable(
        self,
        program: List[Instruction],
        config: PipelineConfig,
        num_slices: int,
        measured: PipelineStats,
    ) -> bool:
        """Proof + measurement gate: cache only when the static predictor
        declares the timing data-independent and its cycle count matches
        the pipeline bit-for-bit."""
        from repro.analysis.scheduler import estimate_cycles

        try:
            estimate = estimate_cycles(
                program, config, num_cmem_slices=num_slices
            )
        except Exception:
            return False
        return bool(
            estimate.exact
            and estimate.cycles == measured.cycles
            and estimate.instructions == measured.instructions
        )

    @staticmethod
    def _execute_functional(
        program: List[Instruction],
        executor: Executor,
        config: PipelineConfig,
    ) -> None:
        """Architectural-state-only replay: same instruction stream, same
        side effects (memory, registers, CMem, remote handlers), no
        timing bookkeeping."""
        pc = 0
        executed = 0
        limit = config.max_cycles
        while True:
            instr = program[pc]
            result = executor.execute(instr, pc)
            executed += 1
            if result.halted:
                return
            pc = result.next_pc
            if executed > limit:
                raise RuntimeError(
                    "functional replay exceeded the cycle limit; "
                    "runaway program?"
                )
