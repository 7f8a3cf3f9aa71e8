"""``analyze_plan()`` — the one entry point for whole-system analysis.

Composes the three system-scope analyzer families over one query:

* ``plan`` — :mod:`repro.analysis.plan` (``PLAN6xx``): CMem capacity,
  core budgets, staging footprint, DRAM bandwidth, tenant co-residency;
* ``noc``  — :mod:`repro.analysis.noc_check` (``NOC7xx``): the
  channel-dependency graph of the plan's (or an explicit) route set;
* ``det``  — :mod:`repro.analysis.determinism` (``DET8xx``): same-
  timestamp batch commutativity over declared :class:`EventAccess`
  batches (the caller's ``event_batches``, or one steady-state wave per
  co-resident tenant).

Callers:

* :func:`repro.sim.simulate` runs the ``plan`` family as an opt-out
  pre-flight gate (``SimConfig.preflight``) before spending tier cycles;
* :class:`repro.serving.ServingSimulator` admission runs the ``plan``
  family (with co-residency) through
  :meth:`repro.serving.policies.ServingPolicy.preflight`;
* ``scripts/lint_plan.py`` runs all three families from the CLI.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.determinism import EventAccess, check_batches
from repro.analysis.diagnostics import LintReport
from repro.analysis.noc_check import RouteFlow, check_routes, plan_route_flows
from repro.analysis.plan import ResidentPlan, verify_plan
from repro.dram.controller import DRAMConfig
from repro.errors import ConfigurationError, PlacementError
from repro.mapping.placement import region_tiles
from repro.mapping.segmentation import SegmentPlan
from repro.sim.config import SimConfig

#: The analyzer families, in the order they run.
ANALYSIS_FAMILIES = ("plan", "noc", "det")


def _merge(into: LintReport, part: LintReport) -> None:
    into.program_length += part.program_length
    into.diagnostics.extend(part.diagnostics)


def analyze_plan(
    plan: Optional[SegmentPlan] = None,
    config: Optional[SimConfig] = None,
    *,
    co_resident: Sequence[ResidentPlan] = (),
    routes: Optional[Sequence[RouteFlow]] = None,
    event_batches: Optional[Sequence[EventAccess]] = None,
    dram: Optional[DRAMConfig] = None,
    families: Sequence[str] = ANALYSIS_FAMILIES,
) -> LintReport:
    """Statically analyze a plan (or a co-resident set of plans).

    ``routes`` overrides the route set (``noc`` family); when omitted it
    is derived from the plans' zig-zag placements.  ``event_batches``
    feeds the ``det`` family explicit event accesses; when omitted the
    residents' steady-state waves are modeled as one tile-writing access
    per tenant, so overlapping regions surface as ``DET801`` write-write
    conflicts in addition to ``PLAN606``.  ``families`` restricts the
    pass — the ``simulate()`` pre-flight gate runs ``("plan",)`` only,
    keeping its cost well under 1% of even the analytic tier.
    """
    unknown = [f for f in families if f not in ANALYSIS_FAMILIES]
    if unknown:
        raise ConfigurationError(
            f"unknown analysis families {unknown}; "
            f"choose from {list(ANALYSIS_FAMILIES)}"
        )
    residents = list(co_resident)
    if plan is not None:
        residents.insert(0, ResidentPlan(name="plan", plan=plan))

    report = LintReport(program_length=0)
    if "plan" in families:
        _merge(
            report,
            verify_plan(config=config, co_resident=residents, dram=dram),
        )
    if "noc" in families:
        flows: List[RouteFlow] = list(routes) if routes is not None else []
        if routes is None:
            for resident in residents:
                try:
                    flows.extend(
                        plan_route_flows(
                            resident.plan,
                            start_offset=resident.region_start,
                            prefix=f"{resident.name}/",
                        )
                    )
                except PlacementError:
                    # Region overflow: already a PLAN602 error; there is
                    # no placement to derive routes from.
                    continue
        _merge(report, check_routes(flows))
    if "det" in families:
        accesses: List[EventAccess]
        if event_batches is not None:
            accesses = list(event_batches)
        else:
            accesses = []
            for resident in residents:
                try:
                    tiles = region_tiles(
                        resident.plan.segments, resident.region_start
                    )
                except PlacementError:
                    continue
                if tiles:
                    # One steady-state wave: the tenant's cores all write
                    # their own stations at the same sim-time.
                    accesses.append(
                        EventAccess(
                            time=0.0,
                            actor=resident.name,
                            tag="wave",
                            writes=tuple(f"tile{t}" for t in sorted(tiles)),
                        )
                    )
        _merge(report, check_batches(accesses))
    return report
