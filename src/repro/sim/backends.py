"""The fidelity-tiered backend layer: one contract, four tiers.

Every backend answers the same query —

    run(network, plan, config) -> RunReport

— at a different fidelity/cost point, and is selectable *by name*
everywhere a simulation is requested (:func:`simulate`, ``MAICCRuntime``,
``MultiDNNScheduler``, ``serving.ServiceModel``, the experiment drivers,
and the ``--backend`` flag of ``scripts/serve.py`` / ``scripts/trace_run.py``
/ ``scripts/xcheck.py``):

``analytic``
    The Eq. (1) closed-form roll-up (:meth:`PerformanceModel.segment_timing`):
    start offsets from the Fig. 7(a) row dependence, no queueing
    simulation.  Cheapest — the tier online controllers (elastic
    resizes) can afford to call per decision.
``streaming``
    The tandem-queue segment simulator — the production default, and the
    tier all historical results were produced on.  Byte-identical to the
    pre-backend chip simulator's output.
``event``
    Every core of every chain as its own actor on the discrete-event
    kernel; validates the streaming approximation and exposes the
    forwarding-policy ablation (``SimConfig.forward_policy``).
``cycle``
    The functional node-group tier: actually executes the mapped layers
    (synthesized weights/ifmaps at each layer's ``n_bits``, seeded)
    through :class:`FunctionalNodeGroup` and verifies every accumulator
    against :func:`~repro.core.node.reference_accumulators`, an
    independent whole-layer GEMM — bit-identical, or the run raises.
    Timing totals reuse the analytic roll-up; what this tier adds is
    executed-numerics evidence and exact operation counts.  The costliest
    tier (about half a second on full-size ResNet18); used for numerics
    checks and cross-checks (``repro.sim.xcheck``).

The cross-tier agreement envelope is asserted by :mod:`repro.sim.xcheck`
and pinned in ``tests/sim/``; see ``docs/SIMULATORS.md`` for the matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.perfmodel import LayerTiming, PerformanceModel
from repro.core.streaming import CoreBreakdown, SegmentResult, SegmentSimulator
from repro.energy.power import EnergyModel, OpCounts
from repro.errors import (
    BackendError,
    MappingError,
    PlanVerificationError,
    SimulationError,
)
from repro.mapping.segmentation import SegmentPlan
from repro.mapping.tiling import tile_network
from repro.nn.workloads import NetworkSpec
from repro.sim.accounting import (
    count_segment_ops,
    exposed_filter_load_cycles,
    performance_model,
    plan_network,
    segment_timings,
    segment_weight_bytes,
    staging_cycles,
    steady_interval,
)
from repro.sim.config import SimConfig
from repro.sim.report import LayerReport, RunReport, SegmentReport
from repro.utils.fixedpoint import fixed_range

#: The production default tier (the pre-backend chip simulator's path).
DEFAULT_BACKEND = "streaming"


@runtime_checkable
class SimulationBackend(Protocol):
    """What the registry requires of a backend: a name, a one-line
    fidelity statement, and the single entry point."""

    name: str
    fidelity: str

    def run(
        self, network: NetworkSpec, plan: SegmentPlan, config: SimConfig
    ) -> RunReport:
        """Simulate the mapped network; all tiers return a RunReport."""
        ...


class _SegmentOutcome:
    """What one tier produced for one segment (internal)."""

    def __init__(
        self,
        compute_cycles: float,
        layers: List[LayerReport],
        *,
        result: Optional[SegmentResult] = None,
        events_processed: Optional[int] = None,
        functional_macs: Optional[int] = None,
        checksum: Optional[int] = None,
        numerics_verified: Optional[bool] = None,
        requests_simulated: int = 1,
    ) -> None:
        self.compute_cycles = compute_cycles
        self.layers = layers
        self.result = result
        self.events_processed = events_processed
        self.functional_macs = functional_macs
        self.checksum = checksum
        self.numerics_verified = numerics_verified
        #: How many request copies ``compute_cycles`` already covers.
        #: Queueing tiers simulate the whole request batch; closed-form
        #: tiers cover one and the shared loop extrapolates the rest at
        #: the steady interval.
        self.requests_simulated = requests_simulated


class ModeledBackend:
    """Shared scaffolding: per-segment loop, load/staging charges, batch
    steady-state streaming, op counting, and energy attribution.

    Subclasses implement one hook — :meth:`_simulate_segment` — producing
    the tier's compute cycles and per-layer flow view.  The loop structure
    (and float evaluation order) mirrors the pre-backend chip simulator
    exactly, which is what keeps the streaming tier byte-identical.
    """

    name = "abstract"
    fidelity = "abstract"

    def _simulate_segment(
        self,
        model: PerformanceModel,
        timings: List[LayerTiming],
        config: SimConfig,
    ) -> _SegmentOutcome:
        raise NotImplementedError

    def run(
        self, network: NetworkSpec, plan: SegmentPlan, config: SimConfig
    ) -> RunReport:
        batch = config.batch
        requests = config.batch_requests
        model = performance_model(config)
        energy_model = EnergyModel(config.chip.constants)
        runs: List[SegmentReport] = []
        total = 0.0
        ops = OpCounts()
        for k, segment in enumerate(plan.segments):
            timings = segment_timings(model, segment)
            outcome = self._simulate_segment(model, timings, config)
            weight_bytes = segment_weight_bytes(segment)
            # Weight-stationary request batching: filters load once and
            # the segment stages once for the whole request batch, so
            # both costs amortize across ``batch_requests``.
            load = exposed_filter_load_cycles(config, weight_bytes)
            staging = staging_cycles(config, plan, k) * batch
            steady = steady_interval(timings)
            report = SegmentReport(
                segment=segment,
                timings=timings,
                compute_cycles=outcome.compute_cycles,
                filter_load_cycles=load,
                staging_cycles=staging,
                layers=outcome.layers,
                steady_interval=steady,
                result=outcome.result,
                events_processed=outcome.events_processed,
                functional_macs=outcome.functional_macs,
                checksum=outcome.checksum,
                numerics_verified=outcome.numerics_verified,
            )
            runs.append(report)
            # Extra samples ride the steady-state pipeline: the segment's
            # bottleneck station dictates the per-sample interval.  A
            # queueing tier already simulated ``requests_simulated``
            # request copies inside compute_cycles; any remaining request
            # copies, and the (batch - 1) extra samples of every request,
            # stream at the steady interval.
            total += (
                report.cycles
                + (requests - outcome.requests_simulated) * steady
                + requests * (batch - 1) * steady
            )
            count_segment_ops(
                ops, model, config.capacity, segment, timings,
                outcome.compute_cycles, weight_bytes, batch=batch * requests,
            )
        seconds = total * config.chip.constants.cycle_seconds
        energy = energy_model.breakdown(ops, seconds)
        return RunReport(
            network=network,
            strategy=config.strategy,
            plan=plan,
            runs=runs,
            total_cycles=total,
            ops=ops,
            energy=energy,
            constants=config.chip.constants,
            batch=batch,
            batch_requests=requests,
            backend=self.name,
        )


def _analytic_layers(
    model: PerformanceModel, timings: List[LayerTiming]
) -> Tuple[float, List[LayerReport]]:
    """Closed-form segment roll-up: finish time + modeled layer flows."""
    st = model.segment_timing(timings)
    layers: List[LayerReport] = []
    finish = 0.0
    for offset, lt in zip(st.start_offsets, st.layers):
        layer_finish = offset + lt.standalone_cycles
        finish = max(finish, layer_finish)
        layers.append(
            LayerReport(
                index=lt.spec.index,
                name=lt.spec.name,
                computing_nodes=lt.computing_nodes,
                iterations=lt.iterations,
                interval_work=lt.interval,
                start=offset,
                finish=layer_finish,
            )
        )
    return finish, layers


class AnalyticBackend(ModeledBackend):
    """Eq. (1) closed form, no queueing simulation.  Cheapest tier."""

    name = "analytic"
    fidelity = "closed-form per-layer model, Fig. 7(a) start offsets"

    def _simulate_segment(
        self,
        model: PerformanceModel,
        timings: List[LayerTiming],
        config: SimConfig,
    ) -> _SegmentOutcome:
        finish, layers = _analytic_layers(model, timings)
        return _SegmentOutcome(finish, layers)


class StreamingBackend(ModeledBackend):
    """Tandem-queue streaming simulation — the production default."""

    name = "streaming"
    fidelity = "per-vector tandem-queue stations (pipeline fill, waiting)"

    def _simulate_segment(
        self,
        model: PerformanceModel,
        timings: List[LayerTiming],
        config: SimConfig,
    ) -> _SegmentOutcome:
        result = SegmentSimulator(
            timings, requests=config.batch_requests
        ).run()
        layers = [
            LayerReport(
                index=flow.spec.index,
                name=flow.spec.name,
                computing_nodes=lt.computing_nodes,
                iterations=flow.iterations,
                interval_work=flow.interval_work,
                start=flow.start,
                finish=flow.finish,
                total_wait=flow.total_wait,
            )
            for flow, lt in zip(result.flows, timings)
        ]
        return _SegmentOutcome(
            result.total_cycles,
            layers,
            result=result,
            requests_simulated=config.batch_requests,
        )


class EventBackend(ModeledBackend):
    """Per-core discrete-event simulation of every chain."""

    name = "event"
    fidelity = "every core an actor on the discrete-event kernel"

    def _simulate_segment(
        self,
        model: PerformanceModel,
        timings: List[LayerTiming],
        config: SimConfig,
    ) -> _SegmentOutcome:
        result = EventDrivenSegmentSimulator(
            timings,
            forward_policy=config.forward_policy,
            requests=config.batch_requests,
        ).run()
        layers = [
            LayerReport(
                index=lt.spec.index,
                name=lt.spec.name,
                computing_nodes=lt.computing_nodes,
                iterations=lt.iterations * result.requests,
                interval_work=lt.interval,
                start=0.0,
                finish=result.layer_finish[lt.spec.index],
            )
            for lt in timings
        ]
        return _SegmentOutcome(
            result.total_cycles,
            layers,
            events_processed=result.events_processed,
            requests_simulated=result.requests,
        )


class CycleBackend(ModeledBackend):
    """Functional node-group execution with bit-exact numerics checking.

    Synthesizes a deterministic workload per layer (seeded by
    ``SimConfig.seed`` and the layer index; weights and ifmap span the
    layer's full signed ``n_bits`` range), streams it through
    :class:`FunctionalNodeGroup` with the plan's node allocation, and
    asserts the executed accumulators equal
    :func:`~repro.core.node.reference_accumulators` — one im2col GEMM
    against the group's per-tap scatter, so agreement is evidence, not
    tautology — raising :class:`SimulationError` on any mismatch.
    Cycle totals reuse the analytic roll-up; this tier is authoritative
    for *numerics* and executed op counts, not queueing behaviour.
    """

    name = "cycle"
    fidelity = "functional node groups, numerics vs quantized reference"

    def _simulate_segment(
        self,
        model: PerformanceModel,
        timings: List[LayerTiming],
        config: SimConfig,
    ) -> _SegmentOutcome:
        from repro.core.functional import FunctionalNodeGroup, bit_true_min_nodes
        from repro.core.node import reference_accumulators

        finish, layers = _analytic_layers(model, timings)
        macs = 0
        checksum = 0
        for lt in timings:
            spec = lt.spec
            lo, hi = fixed_range(spec.n_bits)
            rng = np.random.default_rng((config.seed, spec.index))
            weights = rng.integers(lo, hi + 1, (spec.m, spec.c, spec.r, spec.s))
            bias = rng.integers(-1000, 1000, spec.m)
            q_in = rng.integers(lo, hi + 1, (spec.c, spec.h, spec.w))
            num = (
                bit_true_min_nodes(spec, config.capacity)
                if config.bit_true
                else lt.computing_nodes
            )
            group = FunctionalNodeGroup(
                spec, weights, bias, num,
                bit_true=config.bit_true, capacity=config.capacity,
            )
            acc = group.run(q_in)
            expected = reference_accumulators(spec, weights, bias, q_in)
            if not np.array_equal(acc, expected):
                raise SimulationError(
                    f"cycle tier: layer {spec.name!r} diverged from the "
                    f"quantized reference "
                    f"({int(np.abs(acc - expected).max())} max abs error)"
                )
            macs += int(group.stats.macs)
            checksum = (checksum + int(acc.sum())) & 0xFFFFFFFFFFFFFFFF
        return _SegmentOutcome(
            finish,
            layers,
            functional_macs=macs,
            checksum=checksum,
            numerics_verified=True,
        )


# -- registry ---------------------------------------------------------------------

_REGISTRY: Dict[str, SimulationBackend] = {}


def register_backend(backend: SimulationBackend, *, replace: bool = False) -> None:
    """Add a backend to the by-name registry."""
    if not isinstance(backend, SimulationBackend):
        raise BackendError(
            f"{type(backend).__name__} does not satisfy the "
            "SimulationBackend protocol (name, fidelity, run)"
        )
    if backend.name in _REGISTRY and not replace:
        raise BackendError(
            f"backend {backend.name!r} is already registered; "
            "pass replace=True to override"
        )
    _REGISTRY[backend.name] = backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> SimulationBackend:
    """Look a backend up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


for _backend in (
    AnalyticBackend(),
    StreamingBackend(),
    EventBackend(),
    CycleBackend(),
):
    register_backend(_backend)


# -- the one entry point ----------------------------------------------------------

def simulate(
    network: NetworkSpec,
    *,
    backend: Optional[str] = None,
    strategy: Optional[str] = None,
    batch: Optional[int] = None,
    batch_requests: Optional[int] = None,
    config: Optional[SimConfig] = None,
    plan: Optional[SegmentPlan] = None,
) -> RunReport:
    """Map ``network`` and simulate it on the named backend.

    ``strategy``, ``batch`` and ``batch_requests`` override the
    corresponding ``config`` fields; ``plan`` skips planning entirely
    (the caller mapped the network already — xcheck uses this to hold
    the plan fixed across tiers).
    """
    if batch is not None and batch < 1:
        raise MappingError(f"batch must be >= 1, got {batch}")
    if batch_requests is not None and batch_requests < 1:
        raise MappingError(
            f"batch_requests must be >= 1, got {batch_requests}"
        )
    cfg = (config or SimConfig()).with_run(
        strategy=strategy, batch=batch, batch_requests=batch_requests
    )
    tier = get_backend(backend or DEFAULT_BACKEND)
    network = tile_network(network, cfg.capacity, cfg.array_size)
    if plan is None:
        plan = plan_network(network, cfg.strategy, cfg)
    if cfg.preflight:
        # Static pre-flight: reject plans that violate capacity/budget
        # invariants before the tier spends any cycles.  Runs only the
        # closed-form ``plan`` family, so even the analytic tier pays
        # well under 1% (docs/ANALYSIS.md).  Function-level import: the
        # analysis package is only loaded when the gate is on.
        from repro.analysis.system import analyze_plan

        report = analyze_plan(plan=plan, config=cfg, families=("plan",))
        if not report.ok:
            raise PlanVerificationError(
                "pre-flight plan verification failed:\n" + report.render(),
                report,
            )
    return tier.run(network, plan, cfg)


def streaming_core_breakdown(
    timings: List[LayerTiming],
    layer_index: int,
    result: Optional[SegmentResult] = None,
) -> CoreBreakdown:
    """Fig. 9 per-iteration breakdown of one layer (streaming tier).

    The breakdown is defined by the tandem-queue model; a ``result``
    from a streaming-tier :class:`SegmentReport` avoids re-simulation.
    """
    return SegmentSimulator(timings).core_breakdown(layer_index, result)
