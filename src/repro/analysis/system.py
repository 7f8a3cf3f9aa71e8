"""``analyze_plan()`` — the one entry point for whole-system analysis.

Composes the two system-scope analyzer families over one query:

* ``plan`` — :mod:`repro.analysis.plan` (``PLAN6xx``): CMem capacity,
  core budgets, staging footprint, DRAM bandwidth, tenant co-residency;
* ``noc``  — :mod:`repro.analysis.noc_check` (``NOC7xx``): the
  channel-dependency graph of the plan's (or an explicit) route set.

Callers:

* :func:`repro.sim.simulate` runs the ``plan`` family as an opt-out
  pre-flight gate (``SimConfig.preflight``) before spending tier cycles;
* :class:`repro.serving.ServingSimulator` admission runs the ``plan``
  family (with co-residency) through
  :meth:`repro.serving.policies.ServingPolicy.preflight`;
* ``scripts/lint_plan.py`` runs both families from the CLI.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.diagnostics import LintReport
from repro.analysis.noc_check import RouteFlow, check_routes, resident_route_flows
from repro.analysis.plan import ResidentPlan, verify_plan
from repro.errors import ConfigurationError
from repro.mapping.segmentation import SegmentPlan
from repro.sim.config import SimConfig

#: The analyzer families, in the order they run.
ANALYSIS_FAMILIES = ("plan", "noc")


def _merge(into: LintReport, part: LintReport) -> None:
    into.program_length += part.program_length
    into.diagnostics.extend(part.diagnostics)


def analyze_plan(
    plan: Optional[SegmentPlan] = None,
    config: Optional[SimConfig] = None,
    *,
    co_resident: Sequence[ResidentPlan] = (),
    routes: Optional[Sequence[RouteFlow]] = None,
    families: Sequence[str] = ANALYSIS_FAMILIES,
) -> LintReport:
    """Statically analyze a plan (or a co-resident set of plans).

    ``routes`` overrides the route set (``noc`` family); when omitted it
    is derived from the plans' zig-zag placements
    (:func:`~repro.analysis.noc_check.resident_route_flows`, which skips
    a resident whose region overflows).  ``families`` restricts the
    pass — the ``simulate()`` pre-flight gate runs ``("plan",)`` only,
    keeping its cost well under 1% of even the analytic tier.
    """
    unknown = [f for f in families if f not in ANALYSIS_FAMILIES]
    if unknown:
        raise ConfigurationError(
            f"unknown analysis families {unknown}; "
            f"choose from {list(ANALYSIS_FAMILIES)}"
        )
    config = config or SimConfig()
    residents = list(co_resident)
    if plan is not None:
        residents.insert(0, ResidentPlan(name="plan", plan=plan))

    report = LintReport(program_length=0)
    if "plan" in families:
        _merge(
            report,
            verify_plan(config=config, co_resident=residents),
        )
    if "noc" in families:
        if routes is None:
            routes = resident_route_flows(residents, config.chip)
        _merge(report, check_routes(routes, config.chip))
    return report
