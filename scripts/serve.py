#!/usr/bin/env python3
"""Online multi-tenant serving on the MAICC array.

Replays a load scenario against one (or all) serving policies and reports
per-tenant SLO figures: latency percentiles, deadline-miss rate, shed
requests, goodput, and — for the elastic policy — every applied
re-partitioning with its re-staging stall.

Scenarios
---------
``mixed-rate``  Three sensor-fusion tenants (camera / lidar / radar) with
                Poisson arrivals whose rates are mismatched with their
                models' MAC weights — the regime where elastic partitions
                beat a static split.
``smoke``       Two tiny tenants at low Poisson rates; finishes in well
                under a second and must shed nothing (the CI
                ``serving-smoke`` job runs this twice and diffs the JSON).
``bursty``      A steady tenant beside one whose trace fires a dense
                burst mid-run; exercises queue bounds (the burst
                overflows its bounded queue, which sheds) and ranking
                both tenants' queue heads on one time-shared server.

Run:  python scripts/serve.py --scenario mixed-rate --policy elastic
      python scripts/serve.py --scenario smoke --policy all --json-out out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import telemetry
from repro.core.multi_dnn import MultiDNNScheduler
from repro.serving import ServingRunResult, ServingSimulator
from repro.serving.scenarios import POLICIES, SCENARIOS, build_policy


def print_report(result: ServingRunResult) -> None:
    print(f"\n=== policy={result.policy} discipline={result.discipline} "
          f"duration={result.duration_ms:g} ms ===")
    header = (f"{'tenant':<10} {'arriv':>6} {'done':>6} {'shed':>5} "
              f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} "
              f"{'miss%':>6} {'goodput/s':>10}")
    print(header)
    for name, report in sorted(result.reports.items()):
        print(f"{name:<10} {report.arrivals:>6} {report.completed:>6} "
              f"{report.shed:>5} {report.p50_ms:>8.3f} {report.p95_ms:>8.3f} "
              f"{report.p99_ms:>8.3f} {100 * report.deadline_miss_rate:>6.1f} "
              f"{report.goodput_rps(result.duration_ms):>10.1f}")
    print(f"worst p99 {result.worst_p99_ms:.3f} ms | "
          f"shed {result.total_shed} | "
          f"misses {result.total_deadline_misses} | "
          f"utilization {result.utilization():.2f}")
    if result.resizes:
        print(f"{len(result.resizes)} resize(s):")
        for event in result.resizes:
            shares = " ".join(
                f"{k}={v}" for k, v in sorted(event.shares.items())
            )
            worst_stall = max(event.stall_ms.values(), default=0.0)
            print(f"  t={event.time_ms:8.1f} ms  {shares}  "
                  f"(max stall {worst_stall:.3f} ms, "
                  f"{event.placements_recomputed} placements)")
    elif result.policy == "elastic":
        print("no resizes (demand matched the initial partition)")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    parser.add_argument("--policy", choices=POLICIES + ("all",),
                        default="elastic")
    parser.add_argument("--discipline", choices=("fifo", "edf"), default="fifo")
    parser.add_argument("--duration-ms", type=float, default=None,
                        help="override the scenario's default window")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="repro.sim tier service times are computed on "
                             "(default: streaming, the authoritative tier)")
    parser.add_argument("--decision-backend", default=None, metavar="NAME",
                        help="cheap repro.sim tier the elastic policy gates "
                             "resize decisions on (e.g. analytic); SLO "
                             "accounting stays on --backend")
    parser.add_argument("--json-out", default=None,
                        help="write the run result(s) as JSON")
    parser.add_argument("--metrics-out", default=None,
                        help="write the telemetry metrics registry as JSON")
    parser.add_argument("--trace-out", default=None,
                        help="write a Perfetto/Chrome trace of the run(s)")
    parser.add_argument("--assert-no-shed", action="store_true",
                        help="exit non-zero if any request was shed")
    args = parser.parse_args()
    if args.duration_ms is not None and not args.duration_ms > 0:
        parser.error(f"duration must be positive, got {args.duration_ms}")

    tenant_factory, default_duration = SCENARIOS[args.scenario]
    duration_ms = (
        default_duration if args.duration_ms is None else args.duration_ms
    )
    policies = list(POLICIES) if args.policy == "all" else [args.policy]

    scheduler = MultiDNNScheduler(backend=args.backend)
    sink = telemetry.Telemetry()
    results: Dict[str, ServingRunResult] = {}
    for policy_name in policies:
        policy = build_policy(
            policy_name, scheduler, decision_backend=args.decision_backend
        )
        simulator = ServingSimulator(
            policy, discipline=args.discipline, telemetry=sink
        )
        results[policy_name] = simulator.run(tenant_factory(), duration_ms)
        print_report(results[policy_name])

    if len(results) > 1:
        print("\n--- worst-tenant p99 across policies ---")
        for name, result in results.items():
            print(f"{name:>12}: {result.worst_p99_ms:8.3f} ms")

    if args.json_out:
        payload = {name: r.as_dict() for name, r in results.items()}
        with open(args.json_out, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"\nwrote {args.json_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as f:
            f.write(sink.registry.to_json(indent=2))
            f.write("\n")
        print(f"wrote {args.metrics_out}")
    if args.trace_out:
        chrome = sink.trace.to_chrome()
        telemetry.validate_chrome_trace(chrome)
        with open(args.trace_out, "w") as f:
            json.dump(chrome, f)
            f.write("\n")
        print(f"wrote {args.trace_out} ({len(sink.trace)} events)")

    if args.assert_no_shed:
        total = sum(r.total_shed for r in results.values())
        if total:
            print(f"ASSERTION FAILED: {total} request(s) shed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
