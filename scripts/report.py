#!/usr/bin/env python3
"""Render a run into a self-contained HTML dashboard + JSON artifact.

Four report kinds, one schema (``maicc-obs-report/1``):

``serving``   replays a load scenario (``repro.serving.scenarios``) with
              telemetry and an SLO monitor attached, then renders the
              per-tenant latency attribution, the windowed time series
              (throughput, p99, queue depth, utilization, shed), and
              every burn-rate / queue-growth / resize-thrash alert.
``fleet``     runs a multi-chip fleet scenario (``repro.fleet``) and
              renders the datacenter view: per-model SLOs merged across
              replicas, per-chip load and utilization panels, crash
              recoveries, and autoscale events.
``xcheck``    runs each workload through every ``repro.sim`` backend on
              one mapped plan and renders the cross-tier comparison
              table beside each tier's cycle attribution.
``dse``       runs a named design-space sweep (``repro.dse.presets``)
              on the process-parallel sweep engine and renders the
              Pareto frontiers, the per-block energy/area panels, and
              the baseline comparison tables.

All artifacts are byte-deterministic: every number is simulation-
derived and nothing reads the wall clock, so the CI ``obs-smoke`` job
generates each report twice and diffs the bytes.

Run:  PYTHONPATH=src python scripts/report.py serving \\
          --scenario mixed-rate-overloaded --policy elastic \\
          --out report.html --json-out report.json
      PYTHONPATH=src python scripts/report.py fleet \\
          --scenario chip-crash --out fleet.html --json-out fleet.json
      PYTHONPATH=src python scripts/report.py xcheck --workload tiny \\
          --out xreport.html --json-out xreport.json
      PYTHONPATH=src python scripts/report.py dse --sweep smoke \\
          --workers 4 --out dse.html --json-out dse.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from xcheck import WORKLOADS  # noqa: E402  (sibling script, single source)

from repro import telemetry  # noqa: E402
from repro.core.multi_dnn import MultiDNNScheduler  # noqa: E402
from repro.obs.html import render_html  # noqa: E402
from repro.obs.monitor import SLOConfig, SLOMonitor  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.fleet import FLEET_SCENARIOS, FleetScenario  # noqa: E402
from repro.fleet import build_scenario as build_fleet_scenario  # noqa: E402
from repro.dse import SWEEPS, run_sweep  # noqa: E402
from repro.obs.report import (  # noqa: E402
    build_dse_report,
    build_fleet_report,
    build_serving_report,
    build_xcheck_report,
    validate_report,
)
from repro.serving import ServingSimulator  # noqa: E402
from repro.serving.scenarios import POLICIES, SCENARIOS, build_policy  # noqa: E402
from repro.sim import available_backends, cross_check  # noqa: E402


def serving_report(args: argparse.Namespace) -> Dict[str, object]:
    tenant_factory, default_duration = SCENARIOS[args.scenario]
    duration_ms = (
        default_duration if args.duration_ms is None else args.duration_ms
    )
    scheduler = MultiDNNScheduler(backend=args.backend)
    policy = build_policy(args.policy, scheduler)
    sink = telemetry.Telemetry()
    monitor = SLOMonitor(SLOConfig(window_ms=args.window_ms))
    simulator = ServingSimulator(
        policy,
        discipline=args.discipline,
        telemetry=sink,
        monitor=monitor,
    )
    result = simulator.run(tenant_factory(), duration_ms)
    assert sink.registry is not None
    series = sink.registry.as_dict()["series"]
    print(
        f"{args.scenario}: {result.total_completed} completed, "
        f"{result.total_shed} shed, {len(result.alerts)} alert(s)"
    )
    return build_serving_report(
        result,
        scenario=args.scenario,
        window_ms=args.window_ms,
        series=series,  # type: ignore[arg-type]
    )


def fleet_report(
    args: argparse.Namespace, scenario: FleetScenario
) -> Dict[str, object]:
    simulator = scenario.simulator(
        balancer=args.balancer, seed=args.seed, workers=args.workers
    )
    result = simulator.run(
        scenario.duration_ms if args.duration_ms is None else args.duration_ms
    )
    print(
        f"{scenario.name}: {result.total_generated} generated, "
        f"{result.total_completed} completed, {result.total_shed} shed, "
        f"{result.total_failed} failed, "
        f"{len(result.recoveries)} recovery(ies), "
        f"{len(result.scale_events)} scale event(s)"
    )
    return build_fleet_report(result)


def xcheck_report(args: argparse.Namespace) -> Dict[str, object]:
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    backends = args.backends or list(available_backends())
    xchecks = []
    for name in names:
        xchecks.append(cross_check(
            WORKLOADS[name](), strategy=args.strategy, backends=backends
        ))
        print(f"{name}: {len(backends)} tier(s) "
              f"{'agree' if xchecks[-1].ok else 'DISAGREE'}")
    return build_xcheck_report(xchecks)


def dse_report(args: argparse.Namespace) -> Dict[str, object]:
    spec = SWEEPS[args.sweep]
    result = run_sweep(spec, workers=args.workers)
    counts = result.as_dict()["counts"]
    print(
        f"{spec.name}: {len(result.points)} points "
        f"({counts['ok']} ok, {counts['infeasible']} infeasible, "  # type: ignore[index]
        f"{counts['rejected']} rejected, {counts['error']} error)"  # type: ignore[index]
    )
    return build_dse_report(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    serving = sub.add_parser("serving", help="serving-run dashboard")
    serving.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    serving.add_argument("--policy", choices=POLICIES, default="elastic")
    serving.add_argument("--discipline", choices=("fifo", "edf"),
                         default="fifo")
    serving.add_argument("--duration-ms", type=float, default=None,
                         help="override the scenario's default window")
    serving.add_argument("--backend", default=None, metavar="NAME",
                         help="repro.sim tier service times are computed on")
    serving.add_argument("--window-ms", type=float, default=10.0,
                         help="SLO monitor / time-series window (default 10)")

    fleet = sub.add_parser("fleet", help="multi-chip fleet dashboard")
    fleet.add_argument("--scenario", choices=sorted(FLEET_SCENARIOS),
                       required=True)
    fleet.add_argument("--chips", type=int, default=None,
                       help="override the scenario's default chip count")
    fleet.add_argument("--balancer", default=None, metavar="NAME",
                       help="cross-chip balancer (default: the scenario's)")
    fleet.add_argument("--workers", type=int, default=0,
                       help="shard chips across N processes (0 = serial)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--duration-ms", type=float, default=None,
                       help="override the scenario's default window")

    xcheck = sub.add_parser("xcheck", help="cross-tier dashboard")
    xcheck.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    xcheck.add_argument("--strategy", default="heuristic")
    xcheck.add_argument("--backends", nargs="*", default=None, metavar="NAME",
                        help="tiers to compare (default: all registered)")

    dse = sub.add_parser("dse", help="design-space exploration dashboard")
    dse.add_argument("--sweep", choices=sorted(SWEEPS), default="smoke")
    dse.add_argument("--workers", type=int, default=0,
                     help="shard design points across N processes "
                          "(0 = serial; output is byte-identical)")

    for p in (serving, fleet, xcheck, dse):
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the HTML dashboard here")
        p.add_argument("--json-out", metavar="PATH", default=None,
                       help="write the JSON report document here")

    args = parser.parse_args(argv)
    if getattr(args, "workers", 0) < 0:
        parser.error(f"workers must be >= 0, got {args.workers}")
    duration_ms = getattr(args, "duration_ms", None)
    if duration_ms is not None and not duration_ms > 0:
        parser.error(f"duration must be positive, got {duration_ms}")
    if args.kind == "serving":
        doc = serving_report(args)
    elif args.kind == "fleet":
        try:
            scenario = build_fleet_scenario(args.scenario, args.chips)
        except SimulationError as exc:
            # A scenario's chip floor ("needs >= 4 chips") is a bad --chips.
            fleet.error(str(exc))
        doc = fleet_report(args, scenario)
    elif args.kind == "dse":
        doc = dse_report(args)
    else:
        doc = xcheck_report(args)
    validate_report(doc)

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.json_out}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(render_html(doc))
        print(f"wrote {args.out}")
    if not args.out and not args.json_out:
        print("(no --out/--json-out given; report validated only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
