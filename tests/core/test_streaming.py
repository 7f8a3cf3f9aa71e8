"""Segment streaming simulator: pipelining, waiting, Fig. 9 breakdowns."""

import pytest

from repro.core.perfmodel import PerformanceModel
from repro.core.streaming import SegmentSimulator, completion_source_index
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, resnet18_spec


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


def chain(model, *layer_node_pairs, from_dram=True):
    timings = []
    for i, (spec, nodes) in enumerate(layer_node_pairs):
        timings.append(model.layer_timing(spec, nodes, from_dram=(i == 0 and from_dram)))
    return SegmentSimulator(timings)


def conv(index, h=14, c=256, m=50, **kw):
    defaults = dict(r=3, s=3, stride=1, padding=1)
    defaults.update(kw)
    return ConvLayerSpec(index, f"conv{index}", h=h, w=h, c=c, m=m, **defaults)


class TestSingleLayer:
    def test_total_matches_standalone_estimate(self, model):
        lt = model.layer_timing(conv(1), 10, from_dram=True)
        sim = SegmentSimulator([lt])
        total = sim.run().total_cycles
        assert total == pytest.approx(lt.standalone_cycles, rel=0.05)

    def test_empty_segment_rejected(self):
        with pytest.raises(SimulationError):
            SegmentSimulator([])


class TestPipelining:
    def test_two_layers_overlap(self, model):
        sim = chain(model, (conv(1), 25), (conv(2), 25))
        total = sim.run().total_cycles
        serial = sum(
            model.layer_timing(conv(i), 25).standalone_cycles for i in (1, 2)
        )
        assert total < 0.8 * serial

    def test_slow_producer_stalls_consumer(self, model):
        # A consumer with many more nodes than the producer must wait.
        sim = chain(model, (conv(1, m=100), 20), (conv(2, m=100), 90))
        result = sim.run()
        consumer = result.flow_of(2)
        assert consumer.mean_wait > 0

    def test_balanced_chain_waits_little(self, model):
        sim = chain(model, (conv(1), 40), (conv(2), 40))
        result = sim.run()
        consumer = result.flow_of(2)
        assert consumer.mean_wait < consumer.interval_work

    def test_downsample_shortcut_producer_matching(self, model):
        """A layer list with a shortcut still finds geometric producers."""
        net = resnet18_spec()
        timings = [
            model.layer_timing(net.layer(i), nodes)
            for i, nodes in [(1, 16), (2, 16), (3, 16), (4, 16), (5, 2), (6, 8)]
        ]
        result = SegmentSimulator(timings).run()
        assert result.total_cycles > 0
        assert len(result.flows) == 6

    def test_flow_lookup(self, model):
        sim = chain(model, (conv(7), 10))
        result = sim.run()
        with pytest.raises(SimulationError):
            result.flow_of(99)


class TestBreakdown:
    def test_components_sum_to_total(self, model):
        sim = chain(model, (conv(9, h=28, c=128, m=128), 13))
        breakdown = sim.core_breakdown(9)
        assert breakdown.total == pytest.approx(
            breakdown.compute + breakdown.send_ifmap + breakdown.send_ofmap
            + breakdown.wait_ifmap + breakdown.other
        )

    def test_starved_layer_shows_waiting(self, model):
        sim = chain(model, (conv(1, m=100), 20), (conv(2, m=100), 90))
        breakdown = sim.core_breakdown(2)
        assert breakdown.wait_ifmap > breakdown.compute

    def test_send_costs_stable_across_allocations(self, model):
        """Fig. 9: ifmap-forwarding cost does not depend on node count."""
        few = chain(model, (conv(9, h=28, c=128, m=128), 13)).core_breakdown(9)
        many = chain(model, (conv(9, h=28, c=128, m=128), 60)).core_breakdown(9)
        assert few.send_ifmap == many.send_ifmap

    def test_compute_shrinks_with_more_nodes(self, model):
        few = chain(model, (conv(9, h=28, c=128, m=128), 13)).core_breakdown(9)
        many = chain(model, (conv(9, h=28, c=128, m=128), 60)).core_breakdown(9)
        assert many.compute < few.compute


class TestCompletionSourceIndex:
    """The public producer->consumer dependence helper (both streaming
    tiers key on it; see repro.sim.xcheck)."""

    def test_interior_pixel_needs_bottom_right_of_window(self):
        # 3x3 window, stride 1, padding 1 on a 4x4 ifmap: ofmap (1, 1)
        # reads ifmap rows/cols 0..2, so vector (2, 2) completes it.
        producer = conv(1, h=4, c=8, m=8)
        assert completion_source_index(producer, 1, 1) == 2 * 4 + 2

    def test_padding_clamps_to_the_ifmap_edge(self):
        # The (3, 3) window hangs past the ifmap; the last *real* vector
        # is the corner (3, 3), not the padded phantom (4, 4).
        producer = conv(1, h=4, c=8, m=8)
        assert completion_source_index(producer, 3, 3) == 3 * 4 + 3

    def test_top_left_pixel_with_padding(self):
        # ofmap (0, 0) only needs ifmap up to (1, 1): the padded part of
        # its window contributes nothing.
        producer = conv(1, h=4, c=8, m=8)
        assert completion_source_index(producer, 0, 0) == 1 * 4 + 1

    def test_stride_advances_the_window(self):
        producer = conv(1, h=8, c=8, m=8, r=2, s=2, stride=2, padding=0)
        assert completion_source_index(producer, 0, 0) == 1 * 8 + 1
        assert completion_source_index(producer, 1, 1) == 3 * 8 + 3

    def test_pointwise_conv_is_the_identity_on_raster_rank(self):
        producer = conv(1, h=6, c=8, m=8, r=1, s=1, stride=1, padding=0)
        for oy in range(6):
            for ox in range(6):
                assert completion_source_index(producer, oy, ox) == oy * 6 + ox

    def test_monotonic_in_raster_order(self):
        # Later ofmap pixels never depend on earlier ifmap vectors than
        # their predecessors: arrival rank is non-decreasing in raster
        # order, which is what lets the tiers stream without reordering.
        producer = conv(1, h=14, c=16, m=16, r=3, s=3, stride=2, padding=1)
        oh, ow = producer.ofmap_hw
        ranks = [
            completion_source_index(producer, oy, ox)
            for oy in range(oh)
            for ox in range(ow)
        ]
        assert ranks == sorted(ranks)
        assert max(ranks) <= producer.h * producer.w - 1
