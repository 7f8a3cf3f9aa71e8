"""The event tier's station-scan engine vs a per-event heap engine.

:meth:`EventDrivenSegmentSimulator.run` advances all of a layer's
(core, vector) hops with NumPy station scans (see
:mod:`repro.core.event_streaming`).  Its correctness claim is *exact*
equality with a per-event simulation — every timestamp, not an
approximation — so these tests run :func:`per_event_run`, one heap
callback per hop on the discrete-event kernel, as the oracle and compare
the two with ``==`` on cycles, per-layer finish times and event counts,
on fixed and drawn segments.  They also pin the end-to-end event-backend
totals that the ``backends`` section of ``BENCH.json`` tracks.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.event_streaming import (
    EventDrivenSegmentSimulator,
    EventSegmentResult,
)
from repro.core.perfmodel import PerformanceModel, TimingParams
from repro.core.streaming import dependence_map
from repro.errors import SimulationError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, resnet18_spec, small_cnn_spec
from repro.sim import simulate
from repro.telemetry import Telemetry
from repro.utils.events import EventQueue


def per_event_run(timings, requests=1) -> EventSegmentResult:
    """One heap callback per (core, vector) hop: the engine's oracle.

    Every DC and computing core is an actor on the
    :class:`~repro.utils.events.EventQueue`; the heap's (time, seq) order
    is the only ordering rule, so this engine needs none of the
    sort-based ordering argument :meth:`EventDrivenSegmentSimulator.run`
    rests on.
    """
    queue = EventQueue()
    n_layers = len(timings)

    # Per-layer mutable state.
    dc_free = [0.0] * n_layers
    core_free = [[0.0] * lt.computing_nodes for lt in timings]
    chain_done: List[Dict[int, float]] = [dict() for _ in timings]
    finish = [0.0] * n_layers

    producer_of, consumer_sources = dependence_map(timings, requests)
    totals = [lt.iterations * requests for lt in timings]

    # Reverse index: producer layer -> {producer vector: [consumer vectors]}
    # with vector ids request-major.
    waiters: List[Dict[int, List[Tuple[int, int]]]] = [dict() for _ in timings]
    for li, sources in enumerate(consumer_sources):
        if sources is None:
            continue
        pj = producer_of[li]
        assert pj is not None
        for v, src in enumerate(sources.tolist()):
            waiters[pj].setdefault(src, []).append((li, v))

    hop = timings[0].fill_per_hop

    def core_receive(li, k, v, t):
        lt = timings[li]
        start = max(t, core_free[li][k])
        compute_done = start + lt.iteration.total
        core_free[li][k] = compute_done
        forward_at = start + lt.iteration.t_forward
        if k + 1 < lt.computing_nodes:
            queue.schedule(
                max(forward_at + hop, queue.now),
                lambda: core_receive(li, k + 1, v, forward_at + hop),
            )
        # The vector's results exist once the last core computed it.
        if k == lt.computing_nodes - 1:
            chain_complete(li, v, compute_done)

    def chain_complete(li, v, t):
        chain_done[li][v] = t
        finish[li] = max(finish[li], t)
        for (cl, cv) in waiters[li].get(v, ()):
            queue.schedule(
                max(t + hop, queue.now),
                lambda cl=cl, cv=cv, t=t: dc_receive(cl, cv, t + hop),
            )

    def dc_receive(li, v, t):
        lt = timings[li]
        start = max(t, dc_free[li])
        done = start + lt.dc.total
        dc_free[li] = done
        if lt.computing_nodes:
            queue.schedule(
                max(done + hop, queue.now),
                lambda: core_receive(li, 0, v, done + hop),
            )
        else:
            chain_complete(li, v, done)

    # Source layers (no in-segment producer) stream from DRAM at t=0,
    # request-major so batched requests follow each other back to back.
    for li in range(n_layers):
        if producer_of[li] is None:
            for v in range(totals[li]):
                queue.schedule(0.0, lambda li=li, v=v: dc_receive(li, v, 0.0))

    queue.run()
    for li, lt in enumerate(timings):
        if len(chain_done[li]) != totals[li]:
            raise SimulationError(
                f"layer {lt.spec.name}: only {len(chain_done[li])} of "
                f"{totals[li]} vectors completed (deadlock?)"
            )
    return EventSegmentResult(
        total_cycles=max(finish),
        layer_finish={
            lt.spec.index: finish[li] for li, lt in enumerate(timings)
        },
        events_processed=queue.processed,
        requests=requests,
    )


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


def conv(index, h=14, c=256, m=50, **kw):
    defaults = dict(r=3, s=3, stride=1, padding=1)
    defaults.update(kw)
    return ConvLayerSpec(index, f"conv{index}", h=h, w=h, c=c, m=m, **defaults)


def timings(model, *pairs):
    out = []
    for i, (spec, nodes) in enumerate(pairs):
        out.append(model.layer_timing(spec, nodes, from_dram=(i == 0)))
    return out


def both(ts, **kw):
    return (
        EventDrivenSegmentSimulator(ts, **kw).run(),
        per_event_run(ts, **kw),
    )


def assert_equal_results(run, oracle):
    assert run.total_cycles == oracle.total_cycles
    assert run.layer_finish == oracle.layer_finish
    assert run.events_processed == oracle.events_processed
    assert run.requests == oracle.requests


class TestEngineEquality:
    """Byte-identical results, not approximate ones."""

    def test_single_layer(self, model):
        assert_equal_results(*both(timings(model, (conv(1), 10))))

    def test_chained_layers(self, model):
        ts = timings(model, (conv(1), 25), (conv(2), 25), (conv(3), 25))
        assert_equal_results(*both(ts))

    def test_geometry_change_splits_producers(self, model):
        # A stride-2 layer breaks the ofmap/ifmap match, so the second
        # half restarts from DRAM — two independent source layers in one
        # segment, both released at t=0.
        ts = timings(
            model,
            (conv(1, h=14), 10),
            (conv(2, h=14, stride=2, padding=1), 10),
            (conv(3, h=7), 10),
        )
        assert_equal_results(*both(ts))

    @pytest.mark.parametrize("policy", ["eager"])
    def test_forward_policies(self, model, policy):
        # A 50-core chain, where the eager forwarding term (the one
        # policy both engines model) shapes every hop.
        ts = timings(model, (conv(1, m=100), 50), (conv(2), 25))
        assert_equal_results(*both(ts))

    @pytest.mark.parametrize("requests", [2, 4])
    def test_request_batching(self, model, requests):
        ts = timings(model, (conv(1), 25), (conv(2), 25))
        run, oracle = both(ts, requests=requests)
        assert_equal_results(run, oracle)
        assert run.requests == requests


#: The timing costs a drawn segment may zero, each independently.  Zeroing
#: every DC cost gives a zero-cycle DC station, where many vectors reach
#: the next station at one instant and only the order rule decides.
ZEROABLE = (
    "transpose_byte_cost",
    "dc_overhead",
    "ifmap_forward_cost",
    "dram_fetch_cost_per_byte",
    "handshake_cost",
    "hop_latency",
)


@st.composite
def conv_chain(draw, first_index, length):
    """``length`` chained conv layers on a drawn 2-9 pixel ifmap."""
    h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    c = draw(st.integers(1, 300))
    layers = []
    for index in range(first_index, first_index + length):
        r = draw(st.sampled_from((1, 2, 3, 5)))
        # padding < r, and enough of it that the kernel fits the padded
        # ifmap: min(h, w) + 2 * padding >= r.
        padding = draw(st.integers(max(0, (r - min(h, w) + 1) // 2), r - 1))
        spec = ConvLayerSpec(
            index, f"conv{index}", h=h, w=w, c=c, m=draw(st.integers(1, 64)),
            r=r, s=r, stride=draw(st.integers(1, 3)), padding=padding,
        )
        layers.append(spec)
        (h, w), c = spec.ofmap_hw, spec.m
    return layers


@st.composite
def segments(draw):
    """Drawn timings and request count of one segment.

    1-4 conv layers, an optional second chain on its own ifmap (a
    geometry break, so a second source layer) and 0-2 FC tail layers, each
    on ``CapacityModel.min_nodes`` plus 0-3 computing cores.
    """
    n_conv = draw(st.integers(1, 4))
    n_break = draw(st.integers(0, n_conv - 1))
    specs = draw(conv_chain(1, n_conv - n_break))
    if n_break:
        specs += draw(conv_chain(len(specs) + 1, n_break))
    c = specs[-1].m
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(1, 64))
        index = len(specs) + 1
        specs.append(ConvLayerSpec(
            index, f"fc{index}", h=1, w=1, c=c, m=m,
            r=1, s=1, padding=0, kind="linear",
        ))
        c = m
    zeroed = [name for name in ZEROABLE if draw(st.booleans())]
    perf = PerformanceModel(TimingParams(**{name: 0.0 for name in zeroed}))
    capacity = CapacityModel()
    ts = [
        perf.layer_timing(
            spec,
            capacity.min_nodes(spec) + draw(st.integers(0, 3)),
            from_dram=(i == 0),
        )
        for i, spec in enumerate(specs)
    ]
    return ts, draw(st.integers(1, 4))


class TestDrawnSegments:
    @settings(max_examples=150, deadline=None)
    @given(segment=segments())
    def test_run_equals_the_per_event_engine(self, segment):
        ts, requests = segment
        assert_equal_results(*both(ts, requests=requests))


def _per_event_simulator_run(self):
    return per_event_run(self.timings, requests=self.requests)


class TestBackendPins:
    """End-to-end event-backend totals, pinned to the tracked baselines.

    These are the exact cycle totals the event tier produced *before*
    the vectorization (the backends bench at the seed), so any drift in
    the station-scan engine — or in the mapping underneath it — fails
    here rather than surfacing as a silent benchmark shift.  The oracle
    totals come from routing ``run()`` to the per-event engine.
    """

    def test_small_cnn_pinned_and_engine_invariant(self, monkeypatch):
        default = simulate(small_cnn_spec(), backend="event")
        monkeypatch.setattr(
            EventDrivenSegmentSimulator, "run", _per_event_simulator_run
        )
        reference = simulate(small_cnn_spec(), backend="event")
        assert default.total_cycles == pytest.approx(80128.4, abs=1e-6)
        assert default.total_cycles == reference.total_cycles
        assert default.energy.total == reference.energy.total

    def test_resnet18_pinned_and_engine_invariant(self, monkeypatch):
        default = simulate(resnet18_spec(), backend="event")
        monkeypatch.setattr(
            EventDrivenSegmentSimulator, "run", _per_event_simulator_run
        )
        reference = simulate(resnet18_spec(), backend="event")
        assert default.total_cycles == pytest.approx(
            5089346.598187392, abs=1e-6
        )
        assert default.total_cycles == reference.total_cycles
        assert default.energy.total == reference.energy.total


class TestTelemetryInvariance:
    """The telemetry sink never changes what the event tier computes."""

    @pytest.mark.parametrize("spec", [small_cnn_spec, resnet18_spec])
    def test_enabled_sink_gives_the_null_sink_result(self, spec):
        plain = simulate(spec(), backend="event")
        with telemetry.use(Telemetry()):
            traced = simulate(spec(), backend="event")
        assert traced.total_cycles == plain.total_cycles
        assert traced.energy.total == plain.energy.total
        assert [r.events_processed for r in traced.runs] == [
            r.events_processed for r in plain.runs
        ]
