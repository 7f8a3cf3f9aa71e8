#!/usr/bin/env python3
"""Simulated multi-chip datacenter serving of MAICC arrays.

Places model replicas across N simulated chips (first-fit-decreasing,
at most one replica of a model per chip), routes every request
through a cluster balancer, runs each chip's full serving simulation,
and reports the fleet view: per-model latency percentiles merged across
replicas, per-chip utilization, crash recoveries, autoscale events, and
the request-conservation identity.

Scenarios (see ``repro.fleet.scenarios``)
-----------------------------------------
``fleet-smoke``       4 chips, three models, comfortable load — must
                      shed nothing (the CI ``fleet-smoke`` job runs this
                      twice and diffs the JSON).
``mixed-rate-fleet``  8 chips, one degraded 2.25x — separates blind
                      round-robin from load-aware balancers.
``chip-crash``        Chip 0 crashes mid-run; replicas re-place onto
                      survivors, queued work lands in ``failed``.
``autoscale-burst``   A diurnal ramp against one starting replica; the
                      epoch autoscaler follows the wave.
``diurnal-million``   16 chips, >= 1M simulated requests over a
                      day-curve — the scale scenario.

Run:  python scripts/fleet.py --chips 16 --scenario diurnal-million
      python scripts/fleet.py --scenario mixed-rate-fleet --balancer all
      python scripts/fleet.py --scenario fleet-smoke --json-out out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import os
from typing import Dict, Mapping

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import SimulationError
from repro.fleet import BALANCERS, FLEET_SCENARIOS, FleetResult, build_scenario


def print_report(result: FleetResult) -> None:
    print(f"\n=== scenario={result.scenario} balancer={result.balancer} "
          f"chips={result.n_chips} duration={result.duration_ms:g} ms ===")
    header = (f"{'model':<10} {'gen':>8} {'done':>8} {'shed':>6} "
              f"{'fail':>5} {'rshed':>5} {'p50 ms':>8} {'p95 ms':>8} "
              f"{'p99 ms':>8} {'repl':>4}")
    print(header)
    for name, m in sorted(result.models.items()):
        print(f"{name:<10} {m.generated:>8} {m.completed:>8} {m.shed:>6} "
              f"{m.failed:>5} {m.router_shed:>5} "
              f"{m.histogram.percentile(50.0):>8.3f} "
              f"{m.histogram.percentile(95.0):>8.3f} "
              f"{m.histogram.percentile(99.0):>8.3f} "
              f"{m.replicas_final:>4}")
    print(f"fleet p50 {result.fleet_percentile(50.0):.3f} ms | "
          f"p95 {result.fleet_percentile(95.0):.3f} ms | "
          f"p99 {result.fleet_percentile(99.0):.3f} ms | "
          f"worst-model p99 {result.worst_model_p99_ms:.3f} ms")
    utilization = result.chip_utilization()
    cells = " ".join(
        f"{chip}:{u:.2f}" for chip, u in sorted(utilization.items())
    )
    mean = sum(utilization.values()) / len(utilization) if utilization else 0.0
    print(f"chip utilization  {cells}  (mean {mean:.2f})")
    print(f"conserved={result.conserved} shed={result.total_shed} "
          f"failed={result.total_failed} "
          f"router_shed={result.total_router_shed}")
    if result.recoveries:
        for event in result.recoveries:
            print(f"  recovery t={event.time_ms:8.1f} ms  {event.model} "
                  f"chip {event.from_chip} -> {event.to_chip} "
                  f"(ready t={event.ready_ms:.1f} ms)")
    if result.scale_events:
        ups = sum(1 for e in result.scale_events if e.direction == "up")
        downs = len(result.scale_events) - ups
        print(f"  {len(result.scale_events)} scale event(s): "
              f"{ups} up / {downs} down "
              f"({result.router_alert_count} burn alert(s))")


def write_keyed(path: str, docs: Mapping[str, object]) -> None:
    """Write one run's document as is, or several keyed by balancer name."""
    payload = next(iter(docs.values())) if len(docs) == 1 else docs
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--scenario", choices=sorted(FLEET_SCENARIOS),
                        required=True)
    parser.add_argument("--chips", type=int, default=None,
                        help="override the scenario's default chip count")
    parser.add_argument("--balancer",
                        choices=tuple(sorted(BALANCERS)) + ("all",),
                        default=None,
                        help="cross-chip balancer (default: the scenario's)")
    parser.add_argument("--workers", type=int, default=0,
                        help="shard chips across N processes "
                             "(byte-identical to serial; 0 = serial)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration-ms", type=float, default=None,
                        help="override the scenario's default window")
    parser.add_argument("--json-out", default=None,
                        help="write the fleet result as JSON (with several "
                             "balancers, one object keyed by balancer)")
    parser.add_argument("--metrics-out", default=None,
                        help="write the merged fleet metrics registry as "
                             "JSON (with several balancers, one object "
                             "keyed by balancer)")
    parser.add_argument("--assert-no-shed", action="store_true",
                        help="exit non-zero if any request was shed or failed")
    parser.add_argument("--assert-conserved", action="store_true",
                        help="exit non-zero unless every model conserves "
                             "requests")
    args = parser.parse_args()
    if args.workers < 0:
        parser.error(f"workers must be >= 0, got {args.workers}")
    if args.duration_ms is not None and not args.duration_ms > 0:
        parser.error(f"duration must be positive, got {args.duration_ms}")

    try:
        scenario = build_scenario(args.scenario, args.chips)
    except SimulationError as exc:
        # A scenario's chip floor ("needs >= 4 chips") is a bad --chips.
        parser.error(str(exc))
    duration_ms = (
        scenario.duration_ms if args.duration_ms is None else args.duration_ms
    )
    if args.balancer == "all":
        balancers = sorted(BALANCERS)
    else:
        balancers = [args.balancer or scenario.balancer]

    results: Dict[str, FleetResult] = {}
    for balancer in balancers:
        simulator = scenario.simulator(
            balancer=balancer,
            seed=args.seed,
            workers=args.workers,
            collect_metrics=args.metrics_out is not None,
        )
        results[balancer] = simulator.run(duration_ms)
        print_report(results[balancer])

    if len(results) > 1:
        print("\n--- worst-model p99 across balancers ---")
        for name, result in results.items():
            print(f"{name:>12}: {result.worst_model_p99_ms:8.3f} ms")

    if args.json_out:
        write_keyed(
            args.json_out, {name: r.as_dict() for name, r in results.items()}
        )
        print(f"\nwrote {args.json_out}")
    if args.metrics_out:
        registries = {name: r.metrics for name, r in results.items()}
        if any(registry is None for registry in registries.values()):
            print("no metrics collected", file=sys.stderr)
            return 1
        write_keyed(
            args.metrics_out,
            {name: registry.as_dict() for name, registry in registries.items()},
        )
        print(f"wrote {args.metrics_out}")

    if args.assert_conserved:
        for name, result in results.items():
            if not result.conserved:
                print(f"ASSERTION FAILED: balancer {name} lost requests",
                      file=sys.stderr)
                return 1
    if args.assert_no_shed:
        total = sum(
            r.total_shed + r.total_failed + r.total_router_shed
            for r in results.values()
        )
        if total:
            print(f"ASSERTION FAILED: {total} request(s) shed or failed",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
