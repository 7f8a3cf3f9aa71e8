"""Serving policies: who owns which cores, and what service costs.

Every policy answers the same three questions behind one interface —
which *server* (partition or shared chip) a tenant's requests run on,
how long one inference takes there, and whether the partition layout
should change in response to observed load:

* :class:`StaticPartitionPolicy` — MAICC's MIMD mode with the offline
  partitioner: each tenant owns a fixed slice of the array sized by
  :meth:`repro.core.multi_dnn.MultiDNNScheduler.partition`.  Under
  periodic arrivals and FIFO it reproduces the original inline
  sensor-stream loop bit for bit (pinned by a differential oracle).
* :class:`TimeSharedPolicy` — the whole array serves everyone from one
  queue, reloading weights between models (the whole-array latency
  includes the filter-load phase), billed on the scheduler's tier.
* :class:`ElasticPolicy` — starts from the static partition and resizes
  it online: every control interval it re-derives shares from observed
  demand through :func:`repro.mapping.allocation.proportional_shares`,
  with hysteresis so shares don't thrash, and charges each resized
  tenant a weight re-staging stall in sim-time.
* :class:`FixedServicePolicy` — scripted service times for unit tests
  and for benchmarking the serving loop itself without the chip model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.diagnostics import LintReport
from repro.analysis.plan import ResidentPlan
from repro.analysis.system import analyze_plan
from repro.core.multi_dnn import MultiDNNScheduler
from repro.errors import SimulationError
from repro.mapping.allocation import proportional_shares
from repro.nn.workloads import NetworkSpec
from repro.obs.timeline import PhaseSpec, report_phases
from repro.serving.service import ServiceModel
from repro.serving.tenancy import TenantSpec
from repro.sim import RunReport
from repro.sim.config import SimConfig

#: Server id of the single time-shared array.
SHARED_SERVER = "chip"

#: ``(from_ms, factor)`` — service times multiply by ``factor`` from
#: ``from_ms`` until the next step.
DegradationStep = Tuple[float, float]


def step_factor(steps: Sequence[DegradationStep], now_ms: float) -> float:
    """The factor of the last step at or before ``now_ms`` (1.0 before any).

    ``steps`` must be sorted ascending; this one rule serves both a
    chip's service windows and the fleet router's fluid bill
    (``repro.fleet.failures`` re-exports it).
    """
    factor = 1.0
    for from_ms, step in steps:
        if from_ms > now_ms:
            break
        factor = step
    return factor


@dataclass
class TenantObservation:
    """What the simulator saw of one tenant over the last control window."""

    arrivals: int = 0      # requests that arrived in the window
    queue_depth: int = 0   # requests waiting right now
    busy: bool = False     # a request of this tenant is in service


@dataclass
class ResizeAction:
    """One elastic re-partitioning, applied by the simulator."""

    shares: Dict[str, int]
    region_starts: Dict[str, int]
    stall_ms: Dict[str, float] = field(default_factory=dict)
    placements_recomputed: int = 0


class ServingPolicy:
    """Interface between the serving simulator and a partitioning scheme."""

    name: str = "abstract"
    #: Elastic policies set this; the simulator then calls
    #: :meth:`on_interval` every ``control_interval_ms`` of sim time.
    control_interval_ms: Optional[float] = None
    #: Chip-wide degradation as sorted ``(from_ms, factor)`` steps: the
    #: serving loop multiplies every service window it dispatches at
    #: ``t`` by :func:`step_factor` of these steps at ``t``, so a policy
    #: can model a thermally throttled chip or a partial-mesh fault (see
    #: ``repro.fleet.replica``).  The chip reads the tuple once; with no
    #: steps (the default) it makes no per-dispatch call for a scale.
    degradation: Tuple[DegradationStep, ...] = ()

    def __init__(self) -> None:
        self._servers: Dict[str, str] = {}
        self._service_ms: Dict[str, float] = {}
        self._shares: Dict[str, int] = {}

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        """Derive servers, service times, and initial shares."""
        raise NotImplementedError

    def server_of(self, tenant: str) -> str:
        return self._servers[tenant]

    def service_ms(self, tenant: str) -> float:
        return self._service_ms[tenant]

    def batched_service_ms(self, tenant: str, count: int) -> float:
        """Service time of ``count`` back-to-back requests of one tenant.

        The base policy knows nothing about weight residency, so batching
        buys nothing (``count * service_ms``).  Chip-model-backed policies
        override this with a weight-stationary batched simulation, where
        filter loads and staging amortize across the batch.
        """
        if count < 1:
            raise SimulationError(f"batch count must be >= 1, got {count}")
        return count * self.service_ms(tenant)

    def shares(self) -> Dict[str, int]:
        """Current cores per tenant (empty when the array is not split)."""
        return dict(self._shares)

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        """Relative phase weights of one service window (attribution).

        The serving simulator scales these weights onto the billed
        service milliseconds of each dispatch (see
        :mod:`repro.obs.timeline`), so only the *ratios* matter.  The
        base policy has no chip model behind it and bills the whole
        window as compute; chip-backed policies return the per-segment
        DRAM / staging / compute split of their tier's
        :class:`~repro.sim.report.RunReport`.
        """
        return [PhaseSpec("service/compute", "compute", 1.0)]

    def on_interval(
        self, now_ms: float, observations: Mapping[str, TenantObservation]
    ) -> Optional[ResizeAction]:
        """React to a control tick; return a resize or ``None``."""
        return None

    def preflight(
        self, tenants: Sequence[TenantSpec]
    ) -> Optional[LintReport]:
        """Static admission analysis of the prepared partition layout.

        Called by :class:`~repro.serving.simulator.ServingSimulator`
        after :meth:`prepare`; error-severity findings reject the run
        before any sim cycles are spent.  Policies that partition the
        array return the co-residency ``PLAN6xx`` report
        (:func:`repro.analysis.analyze_plan`); the base policy has no
        plan view and returns ``None`` (nothing to check).
        """
        return None


class StaticPartitionPolicy(ServingPolicy):
    """Fixed spatial partitions from the offline multi-DNN scheduler.

    Shares come from :meth:`MultiDNNScheduler.partition`; every service
    time (single requests, weight-stationary batches, attribution
    phases) is a memoized :class:`~repro.serving.service.ServiceModel`
    lookup of the tenant's network on its share, so each
    ``(tenant, share, batch)`` point is simulated once per run.
    """

    name = "static"

    def __init__(self, scheduler: Optional[MultiDNNScheduler] = None) -> None:
        super().__init__()
        self.service = ServiceModel(scheduler)
        #: Each tenant's network, in tenant (snake-walk region) order.
        self._networks: Dict[str, NetworkSpec] = {}

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        if not tenants:
            raise SimulationError(f"{self.name} policy needs at least one tenant")
        self._networks = {t.name: t.network for t in tenants}
        shares = self.service.scheduler.partition(
            [t.network for t in tenants]
        )
        for tenant, share in zip(tenants, shares):
            self._servers[tenant.name] = tenant.name
            self._shares[tenant.name] = share
            self._service_ms[tenant.name] = self.service.latency_ms(
                tenant.network, share
            )

    def batched_service_ms(self, tenant: str, count: int) -> float:
        if count < 1:
            raise SimulationError(f"batch count must be >= 1, got {count}")
        if count == 1:
            return self.service_ms(tenant)
        return self.service.batched_latency_ms(
            self._networks[tenant], self._shares[tenant], count
        )

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        # Hits the service model's memo: prepare()/batched_service_ms
        # already simulated this (network, share, batch) point.
        return report_phases(
            self.service.partition_run(
                self._networks[tenant], self._shares[tenant],
                batch_requests=count,
            )
        )

    def region_starts(self) -> Dict[str, int]:
        """Each tenant's offset into the global snake walk (tenant order)."""
        starts: Dict[str, int] = {}
        offset = 0
        for name in self._networks:
            starts[name] = offset
            offset += self._shares[name]
        return starts

    def preflight(
        self, tenants: Sequence[TenantSpec]
    ) -> Optional[LintReport]:
        if not self._networks:
            return None
        starts = self.region_starts()
        # partition_run hits the service model's memo (prepare() already
        # simulated every share), so admission analysis costs no extra
        # tier cycles.
        residents = [
            ResidentPlan(
                name=name,
                plan=self.service.partition_run(
                    network, self._shares[name]
                ).plan,
                region_start=starts[name],
            )
            for name, network in self._networks.items()
        ]
        return analyze_plan(
            co_resident=residents,
            config=SimConfig(array_size=self.service.array_size),
            families=("plan",),
        )


class TimeSharedPolicy(ServingPolicy):
    """One queue, the whole array, weights reloaded between models."""

    name = "time-shared"

    def __init__(self, scheduler: Optional[MultiDNNScheduler] = None) -> None:
        super().__init__()
        self.service = ServiceModel(scheduler)
        self._networks: Dict[str, NetworkSpec] = {}

    def _whole_array_run(self, tenant: str) -> RunReport:
        return self.service.partition_run(
            self._networks[tenant], self.service.array_size
        )

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        for tenant in tenants:
            self._servers[tenant.name] = SHARED_SERVER
            self._networks[tenant.name] = tenant.network
            self._service_ms[tenant.name] = self._whole_array_run(
                tenant.name
            ).latency_ms

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        # A batched dispatch on the shared array is ``count`` full runs
        # (weights reload every time), so the phase ratios match count=1.
        return report_phases(self._whole_array_run(tenant))


class ElasticPolicy(StaticPartitionPolicy):
    """Demand-driven online resizing of the spatial partitions.

    Starts from the static partition (and shares its service-time
    lookups).  Every control interval the policy turns the window's
    observations into demand weights (``pending requests x model
    MACs``), re-derives shares with the same proportional allocator the
    static partitioner uses, and — if the proposal moves any tenant by
    at least ``hysteresis_cores`` and ``cooldown_ms`` has passed since
    the last resize — re-maps the resized tenants (allocation + zig-zag
    placement) and charges each a weight re-staging stall.

    ``decision_backend`` names a cheap ``repro.sim`` tier (typically
    ``"analytic"``) to *gate* resizes on: a proposal only commits if it
    improves the estimated worst-tenant latency on that tier.  SLO
    accounting (the committed ``service_ms``) always reads the service
    model's authoritative tier regardless.  ``None`` (the default) keeps
    the demand-share gate alone — byte-identical to the historical
    behaviour.
    """

    name = "elastic"

    def __init__(
        self,
        service_model: Optional[ServiceModel] = None,
        *,
        control_interval_ms: float = 10.0,
        hysteresis_cores: int = 8,
        cooldown_ms: float = 0.0,
        decision_backend: Optional[str] = None,
    ) -> None:
        super().__init__()
        if control_interval_ms <= 0:
            raise SimulationError(
                f"control interval must be positive, got {control_interval_ms}"
            )
        if hysteresis_cores < 1:
            raise SimulationError(
                f"hysteresis must be >= 1 core, got {hysteresis_cores}"
            )
        if service_model is not None:
            self.service = service_model
        self.control_interval_ms = control_interval_ms
        self.hysteresis_cores = hysteresis_cores
        self.cooldown_ms = cooldown_ms
        self.decision_backend = decision_backend
        self.resize_count = 0
        self._minimums: Dict[str, int] = {}
        self._last_resize_ms = -math.inf

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        super().prepare(tenants)
        self._minimums = {
            t.name: self.service.minimum_cores(t.network) for t in tenants
        }

    def on_interval(
        self, now_ms: float, observations: Mapping[str, TenantObservation]
    ) -> Optional[ResizeAction]:
        if now_ms - self._last_resize_ms < self.cooldown_ms:
            return None
        networks = self._networks
        weights = []
        for name, network in networks.items():
            obs = observations.get(name, TenantObservation())
            pending = obs.arrivals + obs.queue_depth
            weights.append(float(pending * network.total_macs))
        if not any(weights):
            return None  # idle window: no demand signal, keep the layout
        proposal = proportional_shares(
            [self._minimums[name] for name in networks],
            weights,
            self.service.array_size,
        )
        moved = {
            name: share
            for name, share in zip(networks, proposal)
            if share != self._shares[name]
        }
        if not moved:
            return None
        if max(
            abs(share - self._shares[name]) for name, share in moved.items()
        ) < self.hysteresis_cores:
            return None
        if self.decision_backend is not None and not self._estimate_improves(
            proposal
        ):
            return None

        for name, share in zip(networks, proposal):
            self._shares[name] = share
        starts = self.region_starts()
        stall: Dict[str, float] = {}
        placements = 0
        for name, network in networks.items():
            if name not in moved:
                continue
            run = self.service.partition_run(network, self._shares[name])
            self._service_ms[name] = run.latency_ms
            stall[name] = self.service.restage_ms(network)
            # Each segment of the committed run is re-placed in the
            # tenant's new region.
            placements += len(run.runs)
        self._last_resize_ms = now_ms
        self.resize_count += 1
        return ResizeAction(
            shares=dict(self._shares),
            region_starts=starts,
            stall_ms=stall,
            placements_recomputed=placements,
        )

    def _estimate_improves(self, proposal: Sequence[int]) -> bool:
        """Does the proposal lower the worst-tenant latency estimate?

        Estimated on the cheap ``decision_backend`` tier; the committed
        service times still come from the authoritative tier.
        """

        def worst(shares: Sequence[int]) -> float:
            return max(
                self.service.partition_run(
                    network, share, backend=self.decision_backend
                ).latency_ms
                for network, share in zip(self._networks.values(), shares)
            )

        current = worst([self._shares[name] for name in self._networks])
        return worst(proposal) < current


class FixedServicePolicy(ServingPolicy):
    """Scripted service times; no chip model behind it.

    Used by unit tests, by the ``serving`` and ``obs`` cases of
    ``scripts/bench.py`` to measure the event loop's own overhead, and
    by every fleet chip (:class:`~repro.fleet.replica.ReplicaPolicy`).
    ``shared_server`` puts every tenant on one queue; otherwise each
    tenant gets a dedicated server.
    """

    name = "fixed"

    def __init__(
        self,
        service_ms: Mapping[str, float],
        *,
        shared_server: Optional[str] = None,
        staging_ms: Optional[Mapping[str, float]] = None,
    ) -> None:
        super().__init__()
        self._fixed = dict(service_ms)
        self._shared = shared_server
        #: One-time share of each tenant's service time (weight staging):
        #: a batched dispatch pays it once, the per-request remainder
        #: ``count`` times — the scripted analogue of weight-stationary
        #: request batching.
        self._staging = dict(staging_ms or {})
        for name, stage in self._staging.items():
            if not 0.0 <= stage <= self._fixed.get(name, 0.0):
                raise SimulationError(
                    f"staging_ms for {name!r} must be within "
                    f"[0, service_ms], got {stage}"
                )

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        for tenant in tenants:
            if tenant.name not in self._fixed:
                raise SimulationError(
                    f"no fixed service time for tenant {tenant.name!r}"
                )
            self._servers[tenant.name] = self._shared or tenant.name
            self._service_ms[tenant.name] = self._fixed[tenant.name]

    def batched_service_ms(self, tenant: str, count: int) -> float:
        if count < 1:
            raise SimulationError(f"batch count must be >= 1, got {count}")
        if count == 1:
            return self._fixed[tenant]
        stage = self._staging.get(tenant, 0.0)
        return stage + count * (self._fixed[tenant] - stage)

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        # Mirrors batched_service_ms: staging is paid once per dispatch,
        # the post-staging remainder ``count`` times.
        stage = self._staging.get(tenant, 0.0)
        return [
            PhaseSpec("service/staging", "staging", stage),
            PhaseSpec(
                "service/compute",
                "compute",
                count * (self._fixed[tenant] - stage),
            ),
        ]
