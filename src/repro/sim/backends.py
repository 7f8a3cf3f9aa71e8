"""The fidelity-tiered backend layer: one contract, four tiers.

Every backend answers the same query —

    run(network, plan, config) -> RunReport

— at a different fidelity/cost point, and reports every segment through
the same :class:`SegmentReport`, one :class:`LayerReport` per layer.
The four tiers form a fixed table, selectable *by name* everywhere a
simulation is requested (:func:`simulate`, ``MultiDNNScheduler``,
``serving.ServiceModel``, the experiment drivers,
and the ``--backend`` flag of ``scripts/serve.py`` / ``scripts/trace_run.py``
/ ``scripts/xcheck.py``):

``analytic``
    The Eq. (1) closed-form roll-up: each layer runs its standalone time
    from its Fig. 7(a) start offset
    (:func:`~repro.core.perfmodel.start_offsets`), no queueing
    simulation.  Cheapest — the tier online controllers (elastic
    resizes) can afford to call per decision.
``streaming``
    The tandem-queue segment simulator — the production default, and the
    tier all historical results were produced on.  Byte-identical to the
    pre-backend chip simulator's output.
``event``
    Every core of every chain as its own FIFO station, timed per
    (core, vector) hop; validates the streaming approximation.
``cycle``
    The functional node-group tier: actually executes the mapped layers
    (synthesized weights/ifmaps at each layer's ``n_bits``, seeded)
    through :class:`FunctionalNodeGroup` and verifies every accumulator
    against :func:`~repro.core.node.reference_accumulators`, an
    independent whole-layer GEMM — bit-identical, or the run raises.
    Timing totals reuse the analytic roll-up; what this tier adds is
    executed-numerics evidence and exact operation counts.  The costliest
    tier (about 0.3 s on full-size ResNet18, its operands held at their
    quantized width); used for numerics checks and cross-checks
    (``repro.sim.xcheck``).

The cross-tier agreement envelope is asserted by :mod:`repro.sim.xcheck`
and pinned in ``tests/sim/``; see ``docs/SIMULATORS.md`` for the matrix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.perfmodel import start_offsets
from repro.core.streaming import SegmentSimulator
from repro.energy.power import EnergyModel, OpCounts
from repro.errors import (
    BackendError,
    MappingError,
    PlanVerificationError,
    SimulationError,
)
from repro.mapping.segmentation import Segment, SegmentPlan
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
from repro.utils.fixedpoint import fixed_dtype, fixed_range

#: The production default tier (the pre-backend chip simulator's path).
DEFAULT_BACKEND = "streaming"


class ModeledBackend:
    """Shared scaffolding: per-segment loop, load/staging charges, batch
    steady-state streaming, op counting, and energy attribution.

    Subclasses implement one hook — :meth:`_simulate_segment` — filling
    in the tier's compute cycles and per-layer records.  The loop
    structure (and float evaluation order) mirrors the pre-backend chip
    simulator exactly, which is what keeps the streaming tier
    byte-identical.

    A layer too large for the array runs as back-to-back passes of one
    geometry (:func:`~repro.mapping.tiling.tile_network`), each its own
    segment.  :meth:`run` times, counts and simulates each distinct
    segment once and relabels all of it for every repeat; a tier whose
    outcome reads a layer label sets ``label_free = False``, and each of
    its segments is handled on its own.
    """

    name = "abstract"
    #: Whether the tier keeps the :meth:`_simulate_segment` contract, so
    #: that :meth:`run` may share one outcome among equal segments.
    label_free = True

    def _simulate_segment(self, report: SegmentReport, config: SimConfig) -> int:
        """Fill in ``report``'s ``compute_cycles``, ``layers`` and tier
        fields; return how many request copies ``compute_cycles`` covers.

        Queueing tiers simulate the whole request batch; closed-form
        tiers cover one and :meth:`run` extrapolates the rest at the
        steady interval.

        The contract: the outcome (``compute_cycles``,
        ``events_processed``, the returned count, and one
        :class:`LayerReport` per timing, in timing order) may depend only
        on the segment's timings with the layer labels (``spec.index``,
        ``spec.name``) left out, and on ``config``; a layer's labels may
        appear only as its own record's ``index`` and ``name``.  Within
        one :meth:`run`, a segment of an earlier one's
        :attr:`~repro.mapping.segmentation.Segment.shape` (its layers'
        shapes and computing cores, of which the timings are a function)
        gets that outcome, relabeled, without a call.
        """
        raise NotImplementedError

    def run(
        self, network: NetworkSpec, plan: SegmentPlan, config: SimConfig
    ) -> RunReport:
        batch = config.batch
        requests = config.batch_requests
        model = performance_model(config)
        energy_model = EnergyModel(config)
        runs: List[SegmentReport] = []
        total = 0.0
        ops = OpCounts()
        # The first report, simulated request count and op counts of
        # each distinct segment.
        shared: Dict[object, Tuple[SegmentReport, int, OpCounts]] = {}
        for k, segment in enumerate(plan.segments):
            # Weight-stationary request batching: the segment stages once
            # for the whole request batch (and filters load once), so both
            # costs amortize across ``batch_requests``.
            staging = staging_cycles(config, plan, k) * batch
            # A tier that reads labels keys each segment on its position,
            # so no segment repeats.
            key = segment.shape if self.label_free else k
            seen = shared.get(key)
            if seen is None:
                timings = segment_timings(model, segment)
                weight_bytes = segment_weight_bytes(segment)
                report = SegmentReport(
                    segment=segment,
                    timings=timings,
                    compute_cycles=0.0,
                    filter_load_cycles=exposed_filter_load_cycles(
                        config, weight_bytes
                    ),
                    staging_cycles=staging,
                    steady_interval=steady_interval(timings),
                )
                simulated = self._simulate_segment(report, config)
                counted = OpCounts()
                count_segment_ops(
                    counted, model, config.capacity, segment, timings,
                    report.compute_cycles, weight_bytes, batch=batch * requests,
                )
                shared[key] = (report, simulated, counted)
            else:
                first, simulated, counted = seen
                report = _repeat(first, segment, staging)
            runs.append(report)
            # Extra samples ride the steady-state pipeline: the segment's
            # bottleneck station dictates the per-sample interval.  A
            # queueing tier already simulated ``simulated`` request
            # copies inside compute_cycles; any remaining request copies,
            # and the (batch - 1) extra samples of every request, stream
            # at the steady interval.
            steady = report.steady_interval
            total += (
                report.cycles
                + (requests - simulated) * steady
                + requests * (batch - 1) * steady
            )
            # Every count is an int, so the sum does not depend on how
            # the segments' counts are grouped.
            ops.merge(counted)
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


def _repeat(first: SegmentReport, segment: Segment, staging: float) -> SegmentReport:
    """The report of ``segment``, a later segment of ``first``'s
    :attr:`~repro.mapping.segmentation.Segment.shape`: ``first``'s
    timings, charges and tier outcome under ``segment``'s own layer
    labels, with its own staging charge."""
    specs = segment.layers
    return replace(
        first,
        segment=segment,
        timings=[replace(lt, spec=spec) for lt, spec in zip(first.timings, specs)],
        staging_cycles=staging,
        layers=[
            replace(layer, index=spec.index, name=spec.name)
            for layer, spec in zip(first.layers, specs)
        ],
    )


def _analytic_rollup(report: SegmentReport) -> None:
    """Closed-form segment roll-up: every layer runs its standalone time
    from its Fig. 7(a) start offset."""
    report.layers = [
        LayerReport(
            index=lt.spec.index,
            name=lt.spec.name,
            computing_nodes=lt.computing_nodes,
            iterations=lt.iterations,
            interval_work=lt.interval,
            start=offset,
            finish=offset + lt.standalone_cycles,
        )
        for offset, lt in zip(start_offsets(report.timings), report.timings)
    ]
    report.compute_cycles = max(layer.finish for layer in report.layers)


class AnalyticBackend(ModeledBackend):
    """Eq. (1) closed form, no queueing simulation.  Cheapest tier."""

    name = "analytic"

    def _simulate_segment(self, report: SegmentReport, config: SimConfig) -> int:
        _analytic_rollup(report)
        return 1


class StreamingBackend(ModeledBackend):
    """Tandem-queue streaming simulation — the production default."""

    name = "streaming"

    def _simulate_segment(self, report: SegmentReport, config: SimConfig) -> int:
        report.layers = SegmentSimulator(
            report.timings, requests=config.batch_requests
        ).run()
        report.compute_cycles = max(layer.finish for layer in report.layers)
        return config.batch_requests


class EventBackend(ModeledBackend):
    """Per-core discrete-event simulation of every chain."""

    name = "event"

    def _simulate_segment(self, report: SegmentReport, config: SimConfig) -> int:
        result = EventDrivenSegmentSimulator(
            report.timings, requests=config.batch_requests
        ).run()
        report.compute_cycles = result.total_cycles
        report.events_processed = result.events_processed
        report.layers = [
            LayerReport(
                index=lt.spec.index,
                name=lt.spec.name,
                computing_nodes=lt.computing_nodes,
                iterations=lt.iterations * result.requests,
                interval_work=lt.interval,
                start=0.0,
                finish=result.layer_finish[lt.spec.index],
            )
            for lt in report.timings
        ]
        return result.requests


class CycleBackend(ModeledBackend):
    """Functional node-group execution with bit-exact numerics checking.

    Synthesizes a deterministic workload per layer (seeded by
    ``SimConfig.seed`` and the layer index; weights and ifmap span the
    layer's full signed ``n_bits`` range and are held in the narrowest
    signed dtype of :func:`~repro.utils.fixedpoint.fixed_dtype`, int8 at
    8 bits), streams it through
    :class:`FunctionalNodeGroup` with the plan's node allocation, and
    asserts the executed accumulators equal
    :func:`~repro.core.node.reference_accumulators` — one im2col GEMM
    against the group's per-tap scatter, so agreement is evidence, not
    tautology — raising :class:`SimulationError` on any mismatch.
    Cycle totals reuse the analytic roll-up; this tier is authoritative
    for *numerics* and executed op counts, not queueing behaviour.
    Its operands are seeded by the layer index, so two segments of one
    shape give different checksums: every segment runs.
    """

    name = "cycle"
    label_free = False

    def _simulate_segment(self, report: SegmentReport, config: SimConfig) -> int:
        from repro.core.functional import FunctionalNodeGroup
        from repro.core.node import reference_accumulators

        _analytic_rollup(report)
        macs = 0
        checksum = 0
        for lt in report.timings:
            spec = lt.spec
            lo, hi = fixed_range(spec.n_bits)
            # Drawn at 32 bits, which yields the values (and leaves the
            # generator where) the default int64 draw does, then stored
            # at the layer's width; a draw at int8 or int16 would differ.
            narrow = fixed_dtype(spec.n_bits)
            draw = np.promote_types(narrow, np.int32)
            rng = np.random.default_rng((config.seed, spec.index))
            weights = rng.integers(
                lo, hi + 1, (spec.m, spec.c, spec.r, spec.s), dtype=draw
            ).astype(narrow, copy=False)
            bias = rng.integers(-1000, 1000, spec.m, dtype=draw)
            q_in = rng.integers(
                lo, hi + 1, (spec.c, spec.h, spec.w), dtype=draw
            ).astype(narrow, copy=False)
            group = FunctionalNodeGroup(
                spec, weights, bias, lt.computing_nodes,
                capacity=config.capacity,
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
        report.functional_macs = macs
        report.checksum = checksum
        report.numerics_verified = True
        return 1


# -- the tier table -----------------------------------------------------------------

_REGISTRY: Dict[str, ModeledBackend] = {
    backend.name: backend
    for backend in (
        AnalyticBackend(),
        StreamingBackend(),
        EventBackend(),
        CycleBackend(),
    )
}


def available_backends() -> Tuple[str, ...]:
    """The tier names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> ModeledBackend:
    """Look a tier up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


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
    corresponding ``config`` fields.  A given ``plan`` skips tiling and
    planning (the caller mapped the network already, as the DSE engine
    does once per chip): the report's network is then ``plan.network``,
    the tiled network the plan maps, which must bear ``network``'s name.
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
    if plan is None:
        plan = plan_network(
            tile_network(network, cfg.capacity, cfg.array_size), cfg.strategy, cfg
        )
    elif plan.network.name != network.name:
        raise MappingError(
            f"the plan maps {plan.network.name!r}, not {network.name!r}"
        )
    preflight(plan, cfg)
    return tier.run(plan.network, plan, cfg)


def preflight(plan: SegmentPlan, config: SimConfig) -> None:
    """The :func:`simulate` gate: unless ``config.preflight`` is off,
    raise :class:`~repro.errors.PlanVerificationError` on a plan that
    violates the capacity and budget invariants, before a tier spends
    any cycles on it.

    Runs only the closed-form ``plan`` family, so even the analytic tier
    pays well under 1% (docs/ANALYSIS.md).  Function-level import: the
    analysis package is only loaded when the gate is on.
    """
    if not config.preflight:
        return
    from repro.analysis.system import analyze_plan

    report = analyze_plan(plan=plan, config=config, families=("plan",))
    if not report.ok:
        raise PlanVerificationError(
            "pre-flight plan verification failed:\n" + report.render(),
            report,
        )
