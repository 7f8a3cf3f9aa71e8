"""Event-driven per-core simulation vs the tandem-queue model."""

from dataclasses import fields, replace

import pytest

from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.perfmodel import IterationTiming, PerformanceModel
from repro.core.streaming import SegmentSimulator
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec


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


class TestValidation:
    def test_single_layer_matches_tandem(self, model):
        ts = timings(model, (conv(1), 10))
        tandem = max(layer.finish for layer in SegmentSimulator(ts).run())
        event = EventDrivenSegmentSimulator(ts).run().total_cycles
        assert event == pytest.approx(tandem, rel=0.1)

    def test_chained_layers_match_tandem(self, model):
        ts = timings(model, (conv(1), 25), (conv(2), 25), (conv(3), 25))
        tandem = max(layer.finish for layer in SegmentSimulator(ts).run())
        event = EventDrivenSegmentSimulator(ts).run().total_cycles
        assert event == pytest.approx(tandem, rel=0.15)

    def test_all_vectors_complete(self, model):
        ts = timings(model, (conv(1), 10), (conv(2), 10))
        result = EventDrivenSegmentSimulator(ts).run()
        assert result.layer_finish[1] > 0
        assert result.layer_finish[2] >= result.layer_finish[1]
        assert result.events_processed > 0


class TestForwardPolicy:
    def test_empty_segment_rejected(self):
        with pytest.raises(SimulationError):
            EventDrivenSegmentSimulator([])

    def test_a_layer_without_computing_cores_is_rejected(self, model):
        ts = timings(model, (conv(1), 10), (conv(2), 10))
        ts[1] = replace(ts[1], computing_nodes=0)
        with pytest.raises(SimulationError, match="'conv2'.*0 cores"):
            EventDrivenSegmentSimulator(ts)

    def test_a_zero_cycle_iteration_is_rejected(self, model):
        ts = timings(model, (conv(1), 10))
        idle = {f.name: 0.0 for f in fields(IterationTiming) if f.name != "overlap"}
        ts[0] = replace(ts[0], iteration=replace(ts[0].iteration, **idle))
        with pytest.raises(SimulationError, match="positive iteration time"):
            EventDrivenSegmentSimulator(ts)


class TestShortcutWiring:
    def test_downsample_consumer_subsamples(self, model):
        producer = conv(1, h=14, m=50)
        shortcut = ConvLayerSpec(2, "sc", h=14, w=14, c=256, m=64,
                                 r=1, s=1, stride=2, padding=0)
        ts = timings(model, (producer, 10), (shortcut, 2))
        result = EventDrivenSegmentSimulator(ts).run()
        assert result.layer_finish[2] > 0

    def test_strided_pointwise_producer_feeds_its_consumer_as_it_streams(self, model):
        # The 1x1 stride-2 producer streams the 4x4 subgrid of its 8x8
        # ifmap, and consumer vector k waits for producer vector k.  A
        # fast consumer therefore trails the slow producer by about one
        # vector; waiting for the producer's last vector instead would
        # leave 12 of its 16 vectors queued behind it.
        producer = ConvLayerSpec(1, "sc", h=8, w=8, c=64, m=256,
                                 r=1, s=1, stride=2, padding=0)
        ts = timings(model, (producer, 2), (conv(2, h=4, m=8), 8))
        result = EventDrivenSegmentSimulator(ts).run()
        assert result.layer_finish[2] - result.layer_finish[1] < 3 * ts[1].interval
