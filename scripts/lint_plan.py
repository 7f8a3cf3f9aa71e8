#!/usr/bin/env python
"""Whole-system static analysis of mapped plans from the shell.

``lint_kernel.py``'s system-scope sibling: where that script checks one
assembled program on one core, this one checks a *deployment* — the
mapped :class:`~repro.mapping.segmentation.SegmentPlan` of a network, or
the co-resident partition layout of a serving scenario — against the
``PLAN6xx`` resource rules and the ``NOC7xx`` channel-dependency
deadlock checker (catalog in ``docs/ANALYSIS.md``).

Examples::

    # Lint the resnet18 single-chip plan, human-readable diagnostics.
    PYTHONPATH=src python scripts/lint_plan.py --network resnet18

    # Lint the 3-tenant mixed-rate serving layout, machine-readable.
    PYTHONPATH=src python scripts/lint_plan.py --tenants mixed-rate --json

    # CI negative test: inject a known-broken artifact and expect exit 1.
    PYTHONPATH=src python scripts/lint_plan.py --network resnet18 --broken cmem

    # Cross-check the static NOC verdict against the event-kernel replay.
    PYTHONPATH=src python scripts/lint_plan.py --network resnet18 --replay

Exit status: 0 clean, 1 error diagnostics (or, with ``--strict``,
warnings; or a deadlocked ``--replay``), 2 usage/build failure.
JSON output is deterministic: two runs over the same inputs are
byte-identical (the CI ``analysis-smoke`` job diffs them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import (
    ANALYSIS_FAMILIES,
    LintReport,
    ResidentPlan,
    RouteFlow,
    analyze_plan,
    replay_routes,
    resident_route_flows,
)
from repro.core.multi_dnn import MultiDNNScheduler
from repro.errors import ReproError
from repro.mapping.tiling import tile_network
from repro.nn.workloads import resnet18_spec, small_cnn_spec
from repro.serving.scenarios import SCENARIOS
from repro.sim.accounting import plan_network
from repro.sim.config import SimConfig

NETWORKS = {
    "resnet18": resnet18_spec,
    "small-cnn": small_cnn_spec,
}

#: The classical 4-flow turn cycle (west-first on a 2x2 block): each
#: flow's first link is the one the previous flow needs next.  X-Y
#: routing cannot produce these paths; ``--broken noc`` injects them.
DEADLOCK_FLOWS = (
    RouteFlow("broken/east", (0, 0), (1, 1), path=((0, 0), (1, 0), (1, 1))),
    RouteFlow("broken/south", (1, 0), (0, 1), path=((1, 0), (1, 1), (0, 1))),
    RouteFlow("broken/west", (1, 1), (0, 0), path=((1, 1), (0, 1), (0, 0))),
    RouteFlow("broken/north", (0, 1), (1, 0), path=((0, 1), (0, 0), (1, 0))),
)


def _network_residents(
    name: str, strategy: str
) -> Tuple[List[ResidentPlan], SimConfig]:
    config = SimConfig()
    network = tile_network(NETWORKS[name](), config.capacity, config.array_size)
    plan = plan_network(network, strategy, config)
    return [ResidentPlan(name=name, plan=plan)], config


def _scenario_residents(
    scenario: str, strategy: str
) -> Tuple[List[ResidentPlan], SimConfig]:
    """The scenario's static partition layout, derived without sim cycles.

    Shares come from the same proportional partitioner
    :class:`~repro.serving.StaticPartitionPolicy` uses; each tenant's
    plan is mapped onto its share and regions are packed in tenant
    order, mirroring :meth:`MultiDNNScheduler.run`.
    """
    tenants = SCENARIOS[scenario][0]()
    scheduler = MultiDNNScheduler()
    shares = scheduler.partition([t.network for t in tenants])
    residents: List[ResidentPlan] = []
    offset = 0
    for tenant, share in zip(tenants, shares):
        config = SimConfig(array_size=share)
        network = tile_network(tenant.network, config.capacity, share)
        plan = plan_network(network, strategy, config)
        residents.append(
            ResidentPlan(name=tenant.name, plan=plan, region_start=offset)
        )
        offset += share
    return residents, SimConfig(array_size=scheduler.array_size)


def _inject_cmem_break(residents: Sequence[ResidentPlan]) -> None:
    """Zero one layer's node group: PLAN601 (below the capacity floor)."""
    segment = residents[0].plan.segments[0]
    segment.allocation.nodes[segment.layers[0].index] = 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_plan",
        description="Static plan/NoC analyzer for MAICC deployments "
        "(PLAN6xx / NOC7xx).",
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument(
        "--network", choices=sorted(NETWORKS), default=None,
        help="lint this network's single-chip plan",
    )
    target.add_argument(
        "--tenants", choices=sorted(SCENARIOS), default=None, metavar="NAME",
        help="lint a serving scenario's co-resident partition layout "
        f"({', '.join(sorted(SCENARIOS))})",
    )
    parser.add_argument(
        "--strategy", default="heuristic",
        help="mapping strategy the plan is built with (default: heuristic)",
    )
    parser.add_argument(
        "--families", nargs="+", choices=ANALYSIS_FAMILIES, metavar="FAM",
        default=list(ANALYSIS_FAMILIES),
        help="analyzer families to run (default: all of "
        f"{', '.join(ANALYSIS_FAMILIES)})",
    )
    parser.add_argument(
        "--broken", choices=("cmem", "noc"), default=None,
        help="inject a known-broken artifact (CI negative tests): "
        "'cmem' zeroes a layer's node group, 'noc' adds the classic "
        "4-flow turn cycle",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="also replay the route set on the event kernel and report "
        "whether it stalls (dynamic agreement with NOC701)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON diagnostics")
    parser.add_argument(
        "--strict", action="store_true", help="treat warnings as errors"
    )
    args = parser.parse_args(argv)

    if args.network is None and args.tenants is None:
        parser.error("give --network or --tenants")

    try:
        if args.tenants is not None:
            label = f"tenants:{args.tenants}"
            residents, config = _scenario_residents(args.tenants, args.strategy)
        else:
            label = f"network:{args.network}"
            residents, config = _network_residents(args.network, args.strategy)
    except (OSError, ReproError) as exc:
        print(f"lint_plan: {exc}", file=sys.stderr)
        return 2

    if args.broken == "cmem":
        _inject_cmem_break(residents)
    routes = resident_route_flows(residents, config.chip)
    if args.broken == "noc":
        routes += DEADLOCK_FLOWS

    report: LintReport = analyze_plan(
        config=config,
        co_resident=residents,
        routes=routes,
        families=tuple(args.families),
    )

    payload = {
        "target": label,
        "strategy": args.strategy,
        "families": list(args.families),
        "broken": args.broken,
        "residents": [
            {
                "name": r.name,
                "region_start": r.region_start,
                "footprint": r.footprint,
                "segments": len(r.plan.segments),
            }
            for r in residents
        ],
        **report.to_dict(),
    }

    replay_deadlocked = False
    if args.replay:
        replay = replay_routes(routes, config.chip)
        replay_deadlocked = replay.deadlocked
        payload["replay"] = {
            "flows": len(routes),
            "completed": len(replay.completed),
            "stalled": sorted(replay.stalled),
            "deadlocked": replay.deadlocked,
            "time": replay.time,
        }

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"== {label}")
        for entry in payload["residents"]:
            print(
                f"  resident {entry['name']}: "
                f"region [{entry['region_start']}, "
                f"{entry['region_start'] + entry['footprint']}), "
                f"{entry['segments']} segment(s)"
            )
        print(report.render())
        if args.replay:
            rep = payload["replay"]
            verdict = (
                f"DEADLOCKED ({len(rep['stalled'])} flow(s) stalled)"
                if rep["deadlocked"]
                else f"drained ({rep['completed']} flow(s))"
            )
            print(f"replay: {verdict} at t={rep['time']:g}")

    if report.errors or (args.strict and report.warnings) or replay_deadlocked:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
