"""Event-driven per-core simulation vs the tandem-queue model."""

import pytest

from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.perfmodel import PerformanceModel
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
    def test_after_compute_pays_fill(self, model):
        """Algorithm 1 forwards after computing; eager forwarding cuts the
        chain-fill term — biggest on long chains."""
        ts = timings(model, (conv(1, m=100), 50))
        eager = EventDrivenSegmentSimulator(ts, forward_policy="eager").run()
        after = EventDrivenSegmentSimulator(ts, forward_policy="after_compute").run()
        assert after.total_cycles > eager.total_cycles

    def test_unknown_policy_rejected(self, model):
        ts = timings(model, (conv(1), 10))
        with pytest.raises(SimulationError):
            EventDrivenSegmentSimulator(ts, forward_policy="teleport")

    def test_empty_segment_rejected(self):
        with pytest.raises(SimulationError):
            EventDrivenSegmentSimulator([])


class TestShortcutWiring:
    def test_downsample_consumer_subsamples(self, model):
        producer = conv(1, h=14, m=50)
        shortcut = ConvLayerSpec(2, "sc", h=14, w=14, c=256, m=64,
                                 r=1, s=1, stride=2, padding=0)
        ts = timings(model, (producer, 10), (shortcut, 2))
        result = EventDrivenSegmentSimulator(ts).run()
        assert result.layer_finish[2] > 0
