#!/usr/bin/env python3
"""Fleet serving: a chip crash mid-run, absorbed by load-aware routing.

Eight simulated MAICC chips serve three models behind the cluster
router.  At t=300ms chip 0 — hosting a vision and a speech replica —
crashes: its queued work lands in ``failed`` (counted, never silent),
its replicas re-place onto the emptiest survivors and come back after
weight re-staging, and the balancer steers traffic around the hole.
Chip 1 is additionally 2x slow from t=0 (a degraded part).  The same
run under ``round-robin`` shows why load-awareness matters: the blind
policy keeps feeding the slow chip and the worst model's p99 diverges.

Run:  python examples/fleet_serving.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fleet import (
    ChipCrash,
    ChipDegradation,
    DiurnalShape,
    FailureScenario,
    FleetModelSpec,
    FleetSimulator,
    ModelProfile,
    OpenLoopTraffic,
    UserGroupTraffic,
)

DURATION_MS = 1000.0


def models():
    shape = DiurnalShape(period_ms=DURATION_MS, floor=0.3)
    return [
        FleetModelSpec(
            "vision",
            ModelProfile("vision", 0.8, cores=64, restage_ms=4.0),
            OpenLoopTraffic(rate_hz=5000.0, shape=shape),
            deadline_ms=10.0,
            queue_capacity=256,
            replicas=4,
        ),
        FleetModelSpec(
            "speech",
            ModelProfile("speech", 1.4, cores=96, restage_ms=6.0),
            OpenLoopTraffic(rate_hz=2000.0),
            deadline_ms=15.0,
            queue_capacity=256,
            replicas=3,
        ),
        FleetModelSpec(
            "assist",
            ModelProfile("assist", 2.0, cores=48, restage_ms=5.0),
            UserGroupTraffic(users=80, think_ms=120.0, shape=shape),
            deadline_ms=25.0,
            replicas=2,
        ),
    ]


def run(balancer):
    sim = FleetSimulator(
        models(),
        n_chips=8,
        balancer=balancer,
        failures=FailureScenario(
            crashes=[ChipCrash(chip=0, at_ms=300.0)],
            degradations=[ChipDegradation(chip=1, from_ms=0.0, factor=2.0)],
        ),
        scenario="example-crash",
        seed=42,
    )
    return sim.run(DURATION_MS)


def main():
    results = {name: run(name) for name in ("least-loaded", "round-robin")}

    print(f"8 chips, 3 models, chip 0 crashes at t=300ms "
          f"({DURATION_MS:.0f}ms simulated)\n")
    print(f"{'balancer':<14} {'generated':>9} {'completed':>9} "
          f"{'failed':>6} {'shed':>5} {'worst p99':>10}  conserved")
    for name, result in results.items():
        print(f"{name:<14} {result.total_generated:>9} "
              f"{result.total_completed:>9} {result.total_failed:>6} "
              f"{result.total_shed + result.total_router_shed:>5} "
              f"{result.worst_model_p99_ms:>8.2f}ms  {result.conserved}")

    aware = results["least-loaded"]
    print("\nrecoveries (replicas re-placed off the crashed chip):")
    for event in aware.recoveries:
        print(f"  t={event.time_ms:7.1f}ms  {event.model:<8} "
              f"chip {event.from_chip} -> chip {event.to_chip} "
              f"(routable at t={event.ready_ms:.1f}ms)")

    print("\nper-chip routed requests (least-loaded):")
    for chip, count in sorted(aware.routed.items()):
        marker = "  <- crashed" if chip == 0 else ""
        print(f"  chip {chip}: {count:>6}{marker}")

    assert aware.conserved, "conservation identity must hold"
    assert aware.worst_model_p99_ms < (
        results["round-robin"].worst_model_p99_ms
    ), "load-aware routing should beat round-robin on worst-tenant p99"
    print("\nleast-loaded beats round-robin on worst-tenant p99; "
          "every request accounted for.")


if __name__ == "__main__":
    main()
