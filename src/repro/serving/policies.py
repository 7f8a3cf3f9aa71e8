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
from typing import Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.analysis.diagnostics import LintReport
from repro.analysis.plan import ResidentPlan
from repro.analysis.system import analyze_plan
from repro.core.multi_dnn import MultiDNNScheduler
from repro.errors import SimulationError
from repro.mapping.allocation import proportional_shares
from repro.obs.timeline import PhaseSpec, report_phases
from repro.serving.service import ServiceModel
from repro.serving.tenancy import TenantSpec
from repro.sim import RunReport, simulate
from repro.sim.config import SimConfig

if TYPE_CHECKING:
    from repro.obs.monitor import AlertEvent

#: Server id of the single time-shared array.
SHARED_SERVER = "chip"


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

    def service_scale(self, now_ms: float) -> float:
        """Chip-wide service-time multiplier at ``now_ms`` (default 1.0).

        The serving loop multiplies every dispatched service window by
        this factor, so a policy can model chip-level degradation — a
        thermally throttled chip, a partial-mesh fault — as a step
        function of sim time (see ``repro.fleet.replica``).  The base
        policy never degrades; the dispatch path skips the multiply when
        the factor is exactly 1.0, so default behaviour is bit-identical.
        """
        return 1.0

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

    def on_alerts(
        self, now_ms: float, alerts: Sequence["AlertEvent"]
    ) -> None:
        """Advisory SLO alerts from the run's monitor (may be ignored).

        Called by the simulator just before :meth:`on_interval` with the
        alerts the :class:`~repro.obs.monitor.SLOMonitor` raised since
        the previous control tick.  The base policy ignores them.
        """

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
    """Fixed spatial partitions from the offline multi-DNN scheduler."""

    name = "static"

    def __init__(self, scheduler: Optional[MultiDNNScheduler] = None) -> None:
        super().__init__()
        self.scheduler = scheduler or MultiDNNScheduler()
        self._networks: Dict[str, object] = {}
        self._residents: List[ResidentPlan] = []
        self._reports: Dict[str, RunReport] = {}

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        run = self.scheduler.run([t.network for t in tenants])
        self._networks = {t.name: t.network for t in tenants}
        self._reports = {
            t.name: model_run.result
            for t, model_run in zip(tenants, run.runs)
        }
        self._residents = [
            ResidentPlan(
                name=tenant.name,
                plan=model_run.result.plan,
                region_start=model_run.region_start,
            )
            for tenant, model_run in zip(tenants, run.runs)
        ]
        for tenant, model_run in zip(tenants, run.runs):
            self._servers[tenant.name] = tenant.name
            self._service_ms[tenant.name] = model_run.latency_ms
            self._shares[tenant.name] = model_run.partition_cores

    def preflight(
        self, tenants: Sequence[TenantSpec]
    ) -> Optional[LintReport]:
        if not self._residents:
            return None
        return analyze_plan(
            co_resident=self._residents,
            config=SimConfig(array_size=self.scheduler.array_size),
            families=("plan",),
        )

    def batched_service_ms(self, tenant: str, count: int) -> float:
        if count < 1:
            raise SimulationError(f"batch count must be >= 1, got {count}")
        if count == 1:
            return self.service_ms(tenant)
        return self.scheduler.simulate_partition(
            self._networks[tenant], self._shares[tenant], batch_requests=count
        ).latency_ms

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        if count == 1:
            return report_phases(self._reports[tenant])
        return report_phases(
            self.scheduler.simulate_partition(
                self._networks[tenant],
                self._shares[tenant],
                batch_requests=count,
            )
        )


class TimeSharedPolicy(ServingPolicy):
    """One queue, the whole array, weights reloaded between models."""

    name = "time-shared"

    def __init__(self, scheduler: Optional[MultiDNNScheduler] = None) -> None:
        super().__init__()
        self.scheduler = scheduler or MultiDNNScheduler()
        self._reports: Dict[str, RunReport] = {}

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        for tenant in tenants:
            self._servers[tenant.name] = SHARED_SERVER
            run = simulate(
                tenant.network,
                backend=self.scheduler.backend,
                config=self.scheduler.config.with_run(strategy="heuristic"),
            )
            self._reports[tenant.name] = run
            self._service_ms[tenant.name] = run.latency_ms

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        # A batched dispatch on the shared array is ``count`` full runs
        # (weights reload every time), so the phase ratios match count=1.
        return report_phases(self._reports[tenant])


class ElasticPolicy(ServingPolicy):
    """Demand-driven online resizing of the spatial partitions.

    Every control interval the policy turns the window's observations
    into demand weights (``pending requests x model MACs``), re-derives
    shares with the same proportional allocator the static partitioner
    uses, and — if the proposal moves any tenant by at least
    ``hysteresis_cores`` and ``cooldown_ms`` has passed since the last
    resize — re-maps the resized tenants (allocation + zig-zag placement)
    and charges each a weight re-staging stall.

    ``decision_backend`` names a cheap ``repro.sim`` tier (typically
    ``"analytic"``) to *gate* resizes on: a proposal only commits if it
    improves the estimated worst-tenant latency on that tier.  SLO
    accounting (the committed ``service_ms``) always reads the service
    model's authoritative tier regardless.  ``None`` (the default) keeps
    the demand-share gate alone — byte-identical to the historical
    behaviour.

    ``react_to_alerts`` makes the run's SLO monitor an *advisory*
    signal: a ``burn_rate`` or ``queue_growth`` alert for a tenant lets
    the next control tick bypass the resize cooldown (hysteresis and
    the decision gate still apply).  ``False`` (the default) ignores
    alerts entirely — byte-identical to the unmonitored behaviour.
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
        react_to_alerts: bool = False,
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
        self.service = service_model or ServiceModel()
        self.control_interval_ms = control_interval_ms
        self.hysteresis_cores = hysteresis_cores
        self.cooldown_ms = cooldown_ms
        self.decision_backend = decision_backend
        self.react_to_alerts = react_to_alerts
        self.resize_count = 0
        self._tenants: List[TenantSpec] = []
        self._minimums: Dict[str, int] = {}
        self._last_resize_ms = -math.inf
        self._alerted: set = set()

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        if not tenants:
            raise SimulationError("elastic policy needs at least one tenant")
        self._tenants = list(tenants)
        scheduler = self.service.scheduler
        networks = [t.network for t in tenants]
        shares = scheduler.partition(networks)
        self._minimums = {
            t.name: scheduler.minimum_cores(t.network) for t in tenants
        }
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
        network = next(
            t.network for t in self._tenants if t.name == tenant
        )
        return self.service.batched_latency_ms(
            network, self._shares[tenant], count
        )

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        network = next(
            t.network for t in self._tenants if t.name == tenant
        )
        # Hits the service model's memo: prepare()/batched_service_ms
        # already simulated this (network, share, batch) point.
        return report_phases(
            self.service.partition_run(
                network, self._shares[tenant], batch_requests=count
            )
        )

    def on_alerts(
        self, now_ms: float, alerts: Sequence["AlertEvent"]
    ) -> None:
        if not self.react_to_alerts:
            return
        for alert in alerts:
            if alert.kind in ("burn_rate", "queue_growth"):
                self._alerted.add(alert.tenant)

    def region_starts(self) -> Dict[str, int]:
        """Each tenant's offset into the global snake walk (tenant order)."""
        starts: Dict[str, int] = {}
        offset = 0
        for tenant in self._tenants:
            starts[tenant.name] = offset
            offset += self._shares[tenant.name]
        return starts

    def preflight(
        self, tenants: Sequence[TenantSpec]
    ) -> Optional[LintReport]:
        if not self._tenants:
            return None
        starts = self.region_starts()
        # partition_run hits the service model's memo (prepare() already
        # simulated every share), so admission analysis costs no extra
        # tier cycles.
        residents = [
            ResidentPlan(
                name=t.name,
                plan=self.service.partition_run(
                    t.network, self._shares[t.name]
                ).plan,
                region_start=starts[t.name],
            )
            for t in self._tenants
        ]
        return analyze_plan(
            co_resident=residents,
            config=SimConfig(array_size=self.service.array_size),
            families=("plan",),
        )

    def on_interval(
        self, now_ms: float, observations: Mapping[str, TenantObservation]
    ) -> Optional[ResizeAction]:
        # An SLO alert since the last tick (advisory, opt-in) waives the
        # cooldown: a burning tenant should not wait out the timer.
        alerted = bool(self._alerted)
        self._alerted.clear()
        if not alerted and now_ms - self._last_resize_ms < self.cooldown_ms:
            return None
        weights = []
        for tenant in self._tenants:
            obs = observations.get(tenant.name, TenantObservation())
            pending = obs.arrivals + obs.queue_depth
            weights.append(float(pending * tenant.network.total_macs))
        if not any(weights):
            return None  # idle window: no demand signal, keep the layout
        proposal = proportional_shares(
            [self._minimums[t.name] for t in self._tenants],
            weights,
            self.service.array_size,
        )
        moved = {
            t.name: share
            for t, share in zip(self._tenants, proposal)
            if share != self._shares[t.name]
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

        for tenant, share in zip(self._tenants, proposal):
            self._shares[tenant.name] = share
        starts = self.region_starts()
        stall: Dict[str, float] = {}
        placements = 0
        for tenant in self._tenants:
            if tenant.name not in moved:
                continue
            self._service_ms[tenant.name] = self.service.latency_ms(
                tenant.network, self._shares[tenant.name]
            )
            stall[tenant.name] = self.service.restage_ms(tenant.network)
            placements += len(
                self.service.placements(
                    tenant.network, self._shares[tenant.name], starts[tenant.name]
                )
            )
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
                    t.network, share, backend=self.decision_backend
                ).latency_ms
                for t, share in zip(self._tenants, shares)
            )

        current = worst([self._shares[t.name] for t in self._tenants])
        return worst(proposal) < current


class FixedServicePolicy(ServingPolicy):
    """Scripted service times; no chip model behind it.

    Used by unit tests and by the ``serving`` and ``obs`` cases of
    ``scripts/bench.py`` to measure the event loop's own overhead.
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
