"""Simulated multi-chip datacenter serving of MAICC arrays.

``repro.fleet`` scales the single-chip serving stack
(:mod:`repro.serving`) to a cluster: N simulated chips, each one
single-chip serving run, behind a :class:`ClusterRouter` with replica
placement (:func:`place_replicas` — first-fit-decreasing bin-packing),
pluggable cross-chip load balancing
(:data:`BALANCERS` — round-robin, least-loaded, power-of-two-choices,
and sticky, which pins each model to one replica by a hash of its
name), epoch-driven replica autoscaling with SLO burn-rate
coupling, and declared failure scenarios (chip crashes with replica
re-placement, slow-chip and partial-mesh degradation) under full
request conservation.

Quickstart::

    from repro.fleet import build_scenario

    scenario = build_scenario("fleet-smoke")
    result = scenario.simulator(seed=0).run(scenario.duration_ms)
    print(result.worst_model_p99_ms, result.conserved)

Execution is deterministic end to end: one seed fixes routing, traffic,
and every chip's simulation, and the process-parallel path (``workers=N``)
produces byte-identical JSON to the serial one.  See ``docs/FLEET.md``.
"""

from repro.fleet.autoscale import AutoscaleConfig, ReplicaAutoscaler, ScaleEvent
from repro.fleet.balancing import (
    BALANCERS,
    Balancer,
    FluidLoadTracker,
    LeastLoadedBalancer,
    PowerOfTwoBalancer,
    RoundRobinBalancer,
    StickyTenantBalancer,
    make_balancer,
)
from repro.fleet.failures import (
    ChipCrash,
    ChipDegradation,
    FailureScenario,
)
from repro.fleet.placement import (
    FleetPlacement,
    ReplicaAssignment,
    best_chip_for,
    place_replicas,
)
from repro.fleet.profiles import ModelProfile
from repro.fleet.replica import ReplicaPolicy
from repro.fleet.result import FleetResult, ModelRollup, merge_latency_histograms
from repro.fleet.router import (
    ClusterRouter,
    RecoveryEvent,
    RoutingResult,
    split_user_groups,
)
from repro.fleet.scenarios import (
    FLEET_SCENARIOS,
    FleetScenario,
    build_scenario,
)
from repro.fleet.simulator import (
    DEFAULT_ARRAY_SIZE,
    ChipWorkload,
    FleetModelSpec,
    FleetSimulator,
    OpenLoopTraffic,
    UserGroupTraffic,
    run_chip,
)
from repro.fleet.traffic import (
    DiurnalShape,
    UserGroupArrivals,
    derive_seed,
    generate_open_arrivals,
)

__all__ = [
    "AutoscaleConfig",
    "BALANCERS",
    "Balancer",
    "ChipCrash",
    "ChipDegradation",
    "ChipWorkload",
    "ClusterRouter",
    "DEFAULT_ARRAY_SIZE",
    "DiurnalShape",
    "FLEET_SCENARIOS",
    "FailureScenario",
    "FleetModelSpec",
    "FleetPlacement",
    "FleetResult",
    "FleetScenario",
    "FleetSimulator",
    "FluidLoadTracker",
    "LeastLoadedBalancer",
    "ModelProfile",
    "ModelRollup",
    "OpenLoopTraffic",
    "PowerOfTwoBalancer",
    "RecoveryEvent",
    "ReplicaAssignment",
    "ReplicaAutoscaler",
    "ReplicaPolicy",
    "RoundRobinBalancer",
    "RoutingResult",
    "ScaleEvent",
    "StickyTenantBalancer",
    "UserGroupArrivals",
    "UserGroupTraffic",
    "best_chip_for",
    "build_scenario",
    "derive_seed",
    "generate_open_arrivals",
    "make_balancer",
    "merge_latency_histograms",
    "place_replicas",
    "run_chip",
    "split_user_groups",
]
