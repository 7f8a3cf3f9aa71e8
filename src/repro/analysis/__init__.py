"""Static analysis over assembled MAICC programs.

The paper schedules its six CMem extension instructions both dynamically
(FIFO issue queue + scoreboard, Sec. 3.3) and statically by compile-time
reordering, and its kernels lean on software vector locks (Algorithm 1's
``p``/``nextp`` flags).  This package turns those invariants into
machine-checked properties over ``List[Instruction]`` — without running
the program:

* :func:`verify_program` / :class:`KernelVerifier` — basic blocks,
  def-use dataflow, a symbolic scoreboard replay, CMem geometry and
  lock-protocol rules (catalog in :mod:`repro.analysis.rules`, docs in
  ``docs/ANALYSIS.md``);
* :func:`schedule_kernel` / :func:`estimate_cycles` — the static list
  scheduler plus an exact (for branch-free kernels) cycle predictor that
  runs :mod:`repro.riscv.pipeline` on statically decoded results;
* ``scripts/lint_kernel.py`` — the command-line front end.

Since PR 7 the package also checks *whole systems*, not just kernels
(``scripts/lint_plan.py`` front end, ``analyze_plan()`` entry point):

* :func:`analyze_plan` / :class:`PlanVerifier` — ``PLAN6xx`` resource
  checks over :class:`~repro.mapping.segmentation.SegmentPlan` sets
  (the ``simulate()``/serving pre-flight gate);
* :func:`check_routes` / :func:`replay_routes` — ``NOC7xx``
  channel-dependency deadlock and hot-link checks over mesh route sets.
"""

from repro.analysis.cfg import (
    BasicBlock,
    ControlFlowGraph,
    build_cfg,
    compute_defined,
    compute_liveness,
)
from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.noc_check import (
    RouteChecker,
    RouteFlow,
    RouteReplay,
    check_routes,
    plan_route_flows,
    replay_routes,
    resident_route_flows,
)
from repro.analysis.plan import (
    PlanVerifier,
    ResidentPlan,
    dram_bandwidth_budget,
    verify_plan,
)
from repro.analysis.rules import RULES, Rule, rule
from repro.analysis.system import ANALYSIS_FAMILIES, analyze_plan
from repro.analysis.scheduler import (
    ScheduleReport,
    TimingEstimate,
    estimate_cycles,
    schedule_kernel,
)
from repro.analysis.verifier import (
    AnalysisConfig,
    KernelVerifier,
    verify_program,
)

__all__ = [
    "ANALYSIS_FAMILIES",
    "AnalysisConfig",
    "BasicBlock",
    "ControlFlowGraph",
    "Diagnostic",
    "KernelVerifier",
    "LintReport",
    "PlanVerifier",
    "RULES",
    "ResidentPlan",
    "RouteChecker",
    "RouteFlow",
    "RouteReplay",
    "Rule",
    "rule",
    "ScheduleReport",
    "Severity",
    "TimingEstimate",
    "analyze_plan",
    "build_cfg",
    "check_routes",
    "compute_defined",
    "compute_liveness",
    "dram_bandwidth_budget",
    "estimate_cycles",
    "plan_route_flows",
    "replay_routes",
    "resident_route_flows",
    "schedule_kernel",
    "verify_plan",
    "verify_program",
]
