"""The fleet simulator: N chips, one router, two deterministic phases.

Phase 1 (coordinator): generate every open-loop arrival stream from the
run's seed, split closed-loop user groups across replica chips, and let
the :class:`~repro.fleet.router.ClusterRouter` route all traffic in one
merged time order — interleaving chip crashes and autoscale epochs as
they fall.  Phase 2: every chip is one
:meth:`ServingSimulator.run <repro.serving.simulator.ServingSimulator.run>`
of the serving stack's own records, built on the coordinator: one
:class:`~repro.serving.tenancy.TenantSpec` per hosted model (a
:class:`~repro.serving.arrivals.TraceArrivals` of its routed trace, or a
:class:`~repro.fleet.traffic.UserGroupArrivals` of its user share) under
a :class:`~repro.fleet.replica.ReplicaPolicy` of the chip's profiles and
degradation steps.  Chips share nothing, so phase 2 runs serially or
sharded across worker processes (``fork``) with byte-identical results:
the merge folds chips in fixed index order either way.

Phase 2 runs on the repo's shared executor,
:func:`repro.utils.parallel.run_sharded` (extracted from the fork pool
this module originally hand-rolled): ``workers=N`` shards chips over a
process pool; ``workers=0`` (the default) is the serial path.  Both
produce the same :class:`~repro.fleet.result.FleetResult` bytes, which
the tests and the CI ``fleet-smoke`` job pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.chip import ChipConfig
from repro.errors import SimulationError
from repro.fleet.autoscale import AutoscaleConfig, ReplicaAutoscaler
from repro.fleet.balancing import FluidLoadTracker, make_balancer
from repro.fleet.failures import FailureScenario
from repro.fleet.placement import FleetPlacement, place_replicas
from repro.fleet.profiles import ModelProfile
from repro.fleet.replica import ReplicaPolicy
from repro.fleet.result import FleetResult, ModelRollup, merge_latency_histograms
from repro.fleet.router import ClusterRouter, split_user_groups
from repro.fleet.traffic import (
    DiurnalShape,
    UserGroupArrivals,
    derive_seed,
    generate_open_arrivals,
)
from repro.serving.arrivals import ArrivalProcess, TraceArrivals
from repro.serving.simulator import ServingSimulator, check_batch_requests
from repro.serving.slo import ServingRunResult
from repro.serving.tenancy import TenantSpec
from repro.telemetry import MetricsRegistry, Telemetry
from repro.utils.parallel import run_sharded

#: Cores per fleet chip: the paper's whole MAICC array (210 cores).  The
#: single-chip serving stack defaults to two fewer
#: (:class:`~repro.sim.config.SimConfig`'s ``array_size`` through
#: :class:`~repro.core.multi_dnn.MultiDNNScheduler`: the array minus two
#: cores reserved for the streaming DC of the widest segment).
DEFAULT_ARRAY_SIZE = ChipConfig().compute_tiles


@dataclass(frozen=True)
class OpenLoopTraffic:
    """A model-wide Poisson request stream (peak ``rate_hz``)."""

    rate_hz: float
    shape: Optional[DiurnalShape] = None


@dataclass(frozen=True)
class UserGroupTraffic:
    """``users`` closed-loop sessions with mean think ``think_ms``."""

    users: int
    think_ms: float
    shape: Optional[DiurnalShape] = None


@dataclass(frozen=True)
class FleetModelSpec:
    """One model served fleet-wide."""

    name: str
    profile: ModelProfile
    traffic: object            # OpenLoopTraffic | UserGroupTraffic
    deadline_ms: float = math.inf
    queue_capacity: Optional[int] = None
    replicas: int = 1


@dataclass(frozen=True)
class ChipWorkload:
    """Everything one chip needs to run its slice of the fleet.

    Picklable as a whole, so phase 2 can ship it to a worker process.
    """

    chip: int
    duration_ms: float
    batch_requests: int
    policy: ReplicaPolicy
    tenants: Tuple[TenantSpec, ...]
    halt_ms: Optional[float] = None
    collect_metrics: bool = False


def run_chip(
    workload: ChipWorkload,
) -> Tuple[Optional[ServingRunResult], Optional[MetricsRegistry]]:
    """Run one chip's serving simulation (top-level: fork/pickle safe)."""
    if not workload.tenants:
        return None, None
    sink = Telemetry() if workload.collect_metrics else None
    simulator = ServingSimulator(
        workload.policy,
        batch_requests=workload.batch_requests,
        # No admission gate per chip: scripted replicas have no plan to
        # lint, and place_replicas already kept each chip's shares
        # within its array.
        preflight=False,
        telemetry=sink,
    )
    result = simulator.run(
        workload.tenants, workload.duration_ms, halt_ms=workload.halt_ms
    )
    return result, (sink.registry if sink is not None else None)


class FleetSimulator:
    """Simulates a datacenter of MAICC chips behind a cluster router."""

    def __init__(
        self,
        models: Sequence[FleetModelSpec],
        n_chips: int,
        *,
        balancer: str = "least-loaded",
        seed: int = 0,
        batch_requests: int = 1,
        failures: Optional[FailureScenario] = None,
        autoscale: Optional[AutoscaleConfig] = None,
        collect_metrics: bool = False,
        workers: int = 0,
        scenario: str = "custom",
    ) -> None:
        if not models:
            raise SimulationError("fleet needs at least one model")
        names = [m.name for m in models]
        if len(set(names)) != len(names):
            raise SimulationError(f"model names must be unique, got {names}")
        if workers < 0:
            raise SimulationError(f"workers must be >= 0, got {workers}")
        check_batch_requests(batch_requests)
        self.models = list(models)
        self.n_chips = n_chips
        self.balancer_name = balancer
        self.seed = seed
        self.batch_requests = batch_requests
        self.failures = failures or FailureScenario()
        self.failures.validate(n_chips)
        self.autoscale = autoscale
        self.collect_metrics = collect_metrics
        self.workers = workers
        self.scenario = scenario

    # -- phase 1: placement + routing -------------------------------------------

    def _place(self) -> FleetPlacement:
        profiles = {m.name: m.profile for m in self.models}
        replicas = {m.name: m.replicas for m in self.models}
        return place_replicas(
            profiles, replicas, self.n_chips, DEFAULT_ARRAY_SIZE
        )

    def run(self, duration_ms: float) -> FleetResult:
        if duration_ms <= 0:
            raise SimulationError(
                f"duration must be positive, got {duration_ms}"
            )
        placement = self._place()
        tracker = FluidLoadTracker()
        balancer = make_balancer(
            self.balancer_name, tracker, seed=derive_seed(self.seed, "balancer")
        )
        autoscaler = (
            ReplicaAutoscaler(self.autoscale)
            if self.autoscale is not None
            else None
        )
        router = ClusterRouter(
            placement,
            {m.name: m.profile for m in self.models},
            balancer,
            tracker,
            deadlines_ms={m.name: m.deadline_ms for m in self.models},
            failures=self.failures,
            autoscaler=autoscaler,
        )

        # Sticky session split first: closed-loop groups bind to the
        # *initial* placement (sessions never migrate; a crash fails the
        # chip's sessions, visibly, into the failed counter).
        group_split: Dict[str, Dict[int, int]] = {}
        for model in self.models:
            if isinstance(model.traffic, UserGroupTraffic):
                group_split[model.name] = split_user_groups(
                    placement, model.name, model.traffic.users
                )

        streams: Dict[str, List[float]] = {}
        for model in self.models:
            if isinstance(model.traffic, OpenLoopTraffic):
                streams[model.name] = generate_open_arrivals(
                    model.traffic.rate_hz,
                    derive_seed(self.seed, "open", model.name),
                    duration_ms,
                    shape=model.traffic.shape,
                )
        routing = router.route_all(streams, duration_ms)

        # -- phase 2: independent chip simulations ------------------------------

        workloads = self._build_workloads(
            placement, routing.traces, group_split, duration_ms
        )
        outcomes = self._run_chips(workloads)

        # -- phase 3: deterministic merge ---------------------------------------

        chip_results: Dict[int, Optional[ServingRunResult]] = {}
        registries: List[MetricsRegistry] = []
        for workload, (result, registry) in zip(workloads, outcomes):
            chip_results[workload.chip] = result
            if registry is not None:
                registries.append(registry)

        rollups: Dict[str, ModelRollup] = {}
        for model in self.models:
            rollup = ModelRollup(model=model.name)
            rollup.router_shed = routing.router_shed.get(model.name, 0)
            rollup.replicas_final = placement.replica_count(model.name)
            reports = [
                result.reports[model.name]
                for result in chip_results.values()
                if result is not None and model.name in result.reports
            ]
            for report in reports:
                rollup.arrivals += report.arrivals
                rollup.completed += report.completed
                rollup.overrun += report.overrun
                rollup.shed += report.shed
                rollup.failed += report.failed
                rollup.deadline_misses += report.deadline_misses
            rollup.histogram = merge_latency_histograms(
                [report.histogram for report in reports]
            )
            if isinstance(model.traffic, OpenLoopTraffic):
                rollup.generated = len(streams[model.name])
            else:
                # Closed-loop arrivals are generated on-chip; the chips'
                # own counts are the ground truth.
                rollup.generated = rollup.arrivals + rollup.router_shed
            rollups[model.name] = rollup

        return FleetResult(
            scenario=self.scenario,
            balancer=self.balancer_name,
            n_chips=self.n_chips,
            duration_ms=duration_ms,
            seed=self.seed,
            placement=placement.as_dict(),
            chip_results=chip_results,
            models=rollups,
            routed=routing.routed,
            recoveries=routing.recoveries,
            scale_events=routing.scale_events,
            failures=self.failures.as_dict(),
            router_alert_count=routing.alert_count,
            metrics=(
                MetricsRegistry.merged(registries) if registries else None
            ),
        )

    # -- workload assembly ------------------------------------------------------

    def _build_workloads(
        self,
        placement: FleetPlacement,
        traces: Mapping[Tuple[int, str], List[float]],
        group_split: Mapping[str, Mapping[int, int]],
        duration_ms: float,
    ) -> List[ChipWorkload]:
        by_name = {m.name: m for m in self.models}
        workloads: List[ChipWorkload] = []
        for chip in range(self.n_chips):
            tenant_models = {
                a.model for a in placement.on_chip(chip)
            }
            tenant_models.update(
                model for (c, model) in traces if c == chip
            )
            tenant_models.update(
                name
                for name, split in group_split.items()
                if split.get(chip, 0) > 0
            )
            tenants: List[TenantSpec] = []
            for name in sorted(tenant_models):
                model = by_name[name]
                users = group_split.get(name, {}).get(chip, 0)
                if users > 0:
                    arrivals: ArrivalProcess = UserGroupArrivals(
                        users,
                        model.traffic.think_ms,  # type: ignore[attr-defined]
                        seed=derive_seed(self.seed, "group", chip, name),
                        shape=model.traffic.shape,  # type: ignore[attr-defined]
                    )
                else:
                    arrivals = TraceArrivals(traces.get((chip, name), ()))
                tenants.append(
                    TenantSpec(
                        name=name,
                        network=model.profile.stub_network(),
                        arrivals=arrivals,
                        deadline_ms=model.deadline_ms,
                        queue_capacity=model.queue_capacity,
                    )
                )
            workloads.append(
                ChipWorkload(
                    chip=chip,
                    duration_ms=duration_ms,
                    batch_requests=self.batch_requests,
                    policy=ReplicaPolicy(
                        {t.name: by_name[t.name].profile for t in tenants},
                        degradation=self.failures.degradation_schedule(chip),
                    ),
                    tenants=tuple(tenants),
                    halt_ms=self.failures.halt_ms(chip),
                    collect_metrics=self.collect_metrics,
                )
            )
        return workloads

    # -- phase 2 execution ------------------------------------------------------

    def _run_chips(
        self, workloads: Sequence[ChipWorkload]
    ) -> List[Tuple[Optional[ServingRunResult], Optional[MetricsRegistry]]]:
        # run_sharded preserves input order on both paths, so the merge
        # above folds chips in index order — serial == parallel bytes.
        return run_sharded(run_chip, workloads, workers=self.workers)


__all__ = [
    "ChipWorkload",
    "DEFAULT_ARRAY_SIZE",
    "FleetModelSpec",
    "FleetSimulator",
    "OpenLoopTraffic",
    "UserGroupTraffic",
    "run_chip",
]
