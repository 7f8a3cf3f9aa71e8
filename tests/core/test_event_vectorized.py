"""The vectorized event engine vs the per-event reference engine.

The vectorized engine replaces one heap callback per (core, vector) hop
with one batched event per layer (see :mod:`repro.core.event_streaming`).
Its correctness claim is *exact* equality — every timestamp, not an
approximation — so these tests compare the two engines with ``==`` on
cycles, per-layer finish times, and event counts, and pin the end-to-end
event-backend totals that the ``backends`` section of ``BENCH.json``
tracks.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.perfmodel import PerformanceModel
from repro.nn.workloads import ConvLayerSpec, resnet18_spec, small_cnn_spec
from repro.sim import simulate
from repro.telemetry import Telemetry


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
    vec = EventDrivenSegmentSimulator(ts, **kw).run_vectorized()
    ref = EventDrivenSegmentSimulator(ts, **kw).run_reference()
    return vec, ref


class TestEngineEquality:
    """Byte-identical results, not approximate ones."""

    def test_single_layer(self, model):
        vec, ref = both(timings(model, (conv(1), 10)))
        assert vec.total_cycles == ref.total_cycles
        assert vec.layer_finish == ref.layer_finish
        assert vec.events_processed == ref.events_processed

    def test_chained_layers(self, model):
        ts = timings(model, (conv(1), 25), (conv(2), 25), (conv(3), 25))
        vec, ref = both(ts)
        assert vec.total_cycles == ref.total_cycles
        assert vec.layer_finish == ref.layer_finish
        assert vec.events_processed == ref.events_processed

    def test_geometry_change_splits_producers(self, model):
        # A stride-2 layer breaks the ofmap/ifmap match, so the second
        # half restarts from DRAM — two independent source layers in one
        # queue, exercising the t=0 same-timestamp batch.
        ts = timings(
            model,
            (conv(1, h=14), 10),
            (conv(2, h=14, stride=2, padding=1), 10),
            (conv(3, h=7), 10),
        )
        vec, ref = both(ts)
        assert vec.total_cycles == ref.total_cycles
        assert vec.layer_finish == ref.layer_finish

    @pytest.mark.parametrize("policy", ["eager"])
    def test_forward_policies(self, model, policy):
        # A 50-core chain, where the eager forwarding term (the one
        # policy both engines model) shapes every hop.
        ts = timings(model, (conv(1, m=100), 50), (conv(2), 25))
        vec, ref = both(ts)
        assert vec.total_cycles == ref.total_cycles
        assert vec.layer_finish == ref.layer_finish

    @pytest.mark.parametrize("requests", [2, 4])
    def test_request_batching(self, model, requests):
        ts = timings(model, (conv(1), 25), (conv(2), 25))
        vec, ref = both(ts, requests=requests)
        assert vec.total_cycles == ref.total_cycles
        assert vec.layer_finish == ref.layer_finish
        assert vec.events_processed == ref.events_processed
        assert vec.requests == ref.requests == requests


class TestEngineSelection:
    def test_auto_falls_back_on_zero_service_time(self, model):
        # A zero-cycle DC makes same-time ordering heap-tie-break only,
        # where the sort-based engine's proof does not apply: run() must
        # route to the reference engine rather than risk divergence.
        (lt,) = timings(model, (conv(1), 10))
        degenerate = dataclasses.replace(
            lt,
            dc=dataclasses.replace(
                lt.dc, t_fetch=0.0, t_transpose=0.0, t_send=0.0,
                t_overhead=0.0,
            ),
        )
        sim = EventDrivenSegmentSimulator([degenerate])
        assert not sim._vectorizable()
        auto = sim.run()
        ref = sim.run_reference()
        assert auto.total_cycles == ref.total_cycles
        assert auto.events_processed == ref.events_processed


class TestBackendPins:
    """End-to-end event-backend totals, pinned to the tracked baselines.

    These are the exact cycle totals the event tier produced *before*
    the vectorization (the backends bench at the seed), so any drift in
    the batched engine — or in the mapping underneath it — fails here
    rather than surfacing as a silent benchmark shift.  The reference
    totals come from routing ``run()`` to the per-event engine.
    """

    def test_small_cnn_pinned_and_engine_invariant(self, monkeypatch):
        default = simulate(small_cnn_spec(), backend="event")
        monkeypatch.setattr(
            EventDrivenSegmentSimulator, "run",
            EventDrivenSegmentSimulator.run_reference,
        )
        reference = simulate(small_cnn_spec(), backend="event")
        assert default.total_cycles == pytest.approx(80128.4, abs=1e-6)
        assert default.total_cycles == reference.total_cycles
        assert default.energy.total == reference.energy.total

    def test_resnet18_pinned_and_engine_invariant(self, monkeypatch):
        default = simulate(resnet18_spec(), backend="event")
        monkeypatch.setattr(
            EventDrivenSegmentSimulator, "run",
            EventDrivenSegmentSimulator.run_reference,
        )
        reference = simulate(resnet18_spec(), backend="event")
        assert default.total_cycles == pytest.approx(
            5089346.598187392, abs=1e-6
        )
        assert default.total_cycles == reference.total_cycles
        assert default.energy.total == reference.energy.total


class TestTelemetryInvariance:
    """The engine choice depends on the service times, never on the sink."""

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
