"""The benchmark workloads: inputs from a seed, one rep, output checks.

Every workload drives one public ``repro`` entry point from outside.  A
*rep* is that call plus the JSON serialization of its result (the
artifact the matching ``scripts/`` CLI writes); the digest of that JSON
is what reps, seeds and ``golden.json`` are compared on.  Each workload
exists to load a different layer of the simulator; ``bench/README.md``
gives the measured profile behind every choice.

Host time is the simulator's own cost.  Simulated quantities (cycles,
latencies, shed requests) are model outputs: they enter the benchmark
only through digests, the output checks and :func:`fidelity`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro.core.multi_dnn import MultiDNNScheduler
from repro.dse import SWEEPS, DSEResult, SweepSpec, run_sweep
from repro.dse.engine import evaluate_point
from repro.dse.result import PAPER_REF_RESNET18_LATENCY_MS
from repro.dse.spec import DesignPoint
from repro.fleet import FleetResult, FleetSimulator
from repro.fleet.scenarios import FleetScenario, diurnal_million
from repro.nn.workloads import NetworkSpec, resnet18_spec
from repro.serving import ElasticPolicy, PoissonArrivals, ServiceModel, ServingSimulator
from repro.serving.scenarios import mixed_rate_overloaded_tenants
from repro.serving.slo import ServingRunResult
from repro.serving.tenancy import TenantSpec
from repro.sim.backends import simulate
from repro.sim.config import SimConfig
from repro.sim.report import RunReport

TIERS = ("analytic", "streaming", "event")


@dataclass
class Outcome:
    """What the output checks found in one rep."""

    #: Operations the rep attempted: design points, requests or layers.
    ops: int
    #: Units of the throughput metric: points, requests or verified MACs.
    work: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Model-side counts the traced run derives per-layer ratios from.
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, smoke) -> inputs``; ``smoke`` selects the tiny sizes.
    build: Callable[[int, bool], object]
    #: ``inputs -> (result, artifact JSON)``: the timed call.
    rep: Callable[[object], Tuple[object, str]]
    check: Callable[[object, object], Outcome]


def digest(artifact: str) -> str:
    return hashlib.sha256(artifact.encode()).hexdigest()


# -- dse-frontier -------------------------------------------------------------------
# Mapping, preflight and the three modeled tiers do all the work; the vgg11
# points that do not fit the smaller chips exercise the mapping-failure path,
# and the set contains the paper's chip.  A fully enumerated point set: the
# seed does not enter it.


def dse_inputs(seed: int, smoke: bool) -> SweepSpec:
    if smoke:
        return replace(
            SWEEPS["frontier"], networks=("small_cnn",), backends=TIERS,
            meshes=((12, 12), (16, 16)), cmem_slices=(7,), dram_channels=(32,),
        )
    return replace(
        SWEEPS["frontier"],
        networks=("resnet18", "vgg11", "small_cnn"),
        backends=TIERS,
        meshes=((12, 12), (16, 16), (20, 20)),
        cmem_slices=(5, 7, 9),
        dram_channels=(32,),
    )


def dse_rep(spec: SweepSpec) -> Tuple[DSEResult, str]:
    result = run_sweep(spec, workers=0)
    return result, result.to_json()


def dse_check(spec: SweepSpec, result: DSEResult) -> Outcome:
    statuses = [r.status for r in result.points]
    problems = []
    if [r.point for r in result.points] != spec.expand():
        problems.append("sweep rows do not account for every expanded point")
    return Outcome(
        ops=spec.size,
        work=spec.size,
        failed=statuses.count("error"),
        problems=problems,
        stats={"points_ok": statuses.count("ok")},
    )


# -- serve-elastic ------------------------------------------------------------------
# The overloaded camera/lidar/radar trio under the elastic policy: the
# single-chip serving loop dominates, and every resize re-plans through a
# fresh memoized ServiceModel (mapping and streaming used warm and sparsely).


def serve_inputs(seed: int, smoke: bool) -> Tuple[List[TenantSpec], float]:
    tenants = [
        replace(t, arrivals=PoissonArrivals(t.arrivals.rate_hz, seed=10 * seed + i))
        for i, t in enumerate(mixed_rate_overloaded_tenants(), start=1)
    ]
    return tenants, (200.0 if smoke else 5000.0)


def serve_rep(inputs: Tuple[List[TenantSpec], float]) -> Tuple[ServingRunResult, str]:
    tenants, duration_ms = inputs
    policy = ElasticPolicy(ServiceModel(MultiDNNScheduler()), control_interval_ms=10.0)
    result = ServingSimulator(policy).run(tenants, duration_ms)
    return result, result.to_json()


def serve_check(inputs: object, result: ServingRunResult) -> Outcome:
    problems = []
    for name, r in sorted(result.reports.items()):
        if r.arrivals != r.admitted + r.shed:
            problems.append(f"{name}: arrivals != admitted + shed")
        if r.admitted != r.completed + r.overrun + r.failed:
            problems.append(f"{name}: admitted != completed + overrun + failed")
    return Outcome(
        ops=result.total_arrivals,
        work=result.total_arrivals,
        failed=result.total_failed,
        problems=problems,
        stats={"resizes": len(result.resizes)},
    )


# -- fleet-diurnal ------------------------------------------------------------------
# Sixteen chips over the first quarter of the diurnal day curve: router plus
# per-chip serving loops over scripted service times, no mapping or backend.


def fleet_inputs(seed: int, smoke: bool) -> Tuple[FleetScenario, int, float]:
    if smoke:
        return diurnal_million(2), seed, 200.0
    return diurnal_million(16), seed, 2250.0


def fleet_rep(inputs: Tuple[FleetScenario, int, float]) -> Tuple[FleetResult, str]:
    scenario, seed, duration_ms = inputs
    result = FleetSimulator(scenario.models, scenario.n_chips, seed=seed).run(duration_ms)
    return result, result.to_json()


def fleet_check(inputs: object, result: FleetResult) -> Outcome:
    return Outcome(
        ops=result.total_generated,
        work=result.total_generated,
        failed=result.total_failed,
        problems=[] if result.conserved else ["fleet requests not conserved"],
        stats={
            "routed": sum(result.routed.values()),
            "chip_requests": sum(m.arrivals for m in result.models.values()),
        },
    )


# -- cycle-resnet18 -----------------------------------------------------------------
# Every ResNet18 layer executed by the functional node groups and checked
# against the reference convolution.  Full-size ResNet18 takes ~25 s per rep
# on a 2-CPU host, too long for a median of reps inside one run, so the
# spatial size is divided; layer list, channels, kernels and strides stay.

CYCLE_DIVISOR = 4
CYCLE_SMOKE_DIVISOR = 8


def resnet18_scaled(divisor: int) -> NetworkSpec:
    """ResNet18's 20 mapped layers with height and width divided by ``divisor``."""
    base = resnet18_spec()
    layers = tuple(
        replace(spec, h=math.ceil(spec.h / divisor), w=math.ceil(spec.w / divisor))
        for spec in base.layers
    )
    return NetworkSpec(name=f"{base.name}_hw{divisor}", layers=layers)


def cycle_inputs(seed: int, smoke: bool) -> Tuple[NetworkSpec, SimConfig]:
    divisor = CYCLE_SMOKE_DIVISOR if smoke else CYCLE_DIVISOR
    return resnet18_scaled(divisor), SimConfig(seed=seed)


def cycle_rep(inputs: Tuple[NetworkSpec, SimConfig]) -> Tuple[RunReport, str]:
    network, config = inputs
    report = simulate(network, backend="cycle", config=config)
    return report, json.dumps(report.as_dict(), sort_keys=True)


def cycle_check(inputs: Tuple[NetworkSpec, SimConfig], report: RunReport) -> Outcome:
    network, _ = inputs
    layers = len(network.layers)
    executed = sum(len(run.segment.layers) for run in report.runs)
    verified = all(run.numerics_verified for run in report.runs)
    problems = []
    if executed != layers:
        problems.append(f"{executed} of {layers} layers executed")
    if not verified:
        problems.append("a segment lacks numerics_verified")
    return Outcome(
        ops=layers,
        work=float(sum(run.functional_macs or 0 for run in report.runs)),
        problems=problems,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dse-frontier", dse_inputs, dse_rep, dse_check),
        Workload("serve-elastic", serve_inputs, serve_rep, serve_check),
        Workload("fleet-diurnal", fleet_inputs, fleet_rep, fleet_check),
        Workload("cycle-resnet18", cycle_inputs, cycle_rep, cycle_check),
    )
}


# -- fidelity -----------------------------------------------------------------------

PROBE_NETWORKS = ("resnet18", "vgg11", "small_cnn")


def fidelity() -> Dict[str, float]:
    """Model error on the paper's chip (16x16 mesh, 7 slices, 32 channels).

    ``paper_latency_err_pct`` is the streaming tier's ResNet18 latency
    against the paper's 5.13 ms; ``analytic_err_pct`` and
    ``event_err_pct`` are each tier's largest cycle-count disagreement
    with the streaming tier over :data:`PROBE_NETWORKS`.  Only a model
    change moves them.
    """
    runs = {}
    for network in PROBE_NETWORKS:
        for tier in TIERS:
            point = evaluate_point(DesignPoint(network=network, backend=tier))
            if not point.ok:
                raise RuntimeError(f"fidelity probe {point.point.point_id}: {point.status}")
            runs[network, tier] = point

    def tier_err(tier: str) -> float:
        return max(
            abs(runs[n, tier].total_cycles / runs[n, "streaming"].total_cycles - 1) * 100
            for n in PROBE_NETWORKS
        )

    paper = runs["resnet18", "streaming"].latency_ms / PAPER_REF_RESNET18_LATENCY_MS
    return {
        "paper_latency_err_pct": abs(paper - 1) * 100,
        "analytic_err_pct": tier_err("analytic"),
        "event_err_pct": tier_err("event"),
    }
