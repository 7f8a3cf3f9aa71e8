"""NoC traffic replay of placed segments."""

from dataclasses import replace

import pytest

from repro.analysis import plan_route_flows
from repro.core.perfmodel import PerformanceModel
from repro.core.traffic import simulate_segment_traffic
from repro.mapping.placement import (
    random_placement,
    raster_placement,
    zigzag_placement,
)
from repro.mapping.segmentation import HeuristicStrategy
from repro.nn.workloads import NetworkSpec, resnet18_spec, small_cnn_spec
from repro.noc.router import hop_count
from repro.sim.accounting import plan_network
from repro.sim.config import SimConfig


@pytest.fixture(scope="module")
def segment():
    plan = HeuristicStrategy(SimConfig().array_size).plan(
        resnet18_spec(), PerformanceModel().layer_time_fn()
    )
    return plan.segments[2]  # layers 12-15


class TestTrafficReplay:
    def test_zigzag_minimizes_flit_hops(self, segment):
        zig = simulate_segment_traffic(segment, zigzag_placement(segment))
        rnd = simulate_segment_traffic(segment, random_placement(segment, seed=2))
        assert zig.flit_hops < rnd.flit_hops

    def test_packet_count_placement_invariant(self, segment):
        a = simulate_segment_traffic(segment, zigzag_placement(segment))
        b = simulate_segment_traffic(segment, raster_placement(segment))
        assert a.packets == b.packets

    def test_wide_channels_double_row_traffic(self, segment):
        from repro.mapping.segmentation import Segment
        from repro.mapping.allocation import AllocationResult
        from repro.nn.workloads import ConvLayerSpec

        def one_layer_segment(c):
            spec = ConvLayerSpec(1, "t", h=7, w=7, c=c, m=10)
            alloc = AllocationResult(nodes={1: 4}, times={1: 1.0})
            return Segment(layers=[spec], allocation=alloc)

        narrow = simulate_segment_traffic(
            one_layer_segment(256), zigzag_placement(one_layer_segment(256))
        )
        wide = simulate_segment_traffic(
            one_layer_segment(512), zigzag_placement(one_layer_segment(512))
        )
        assert wide.packets == 2 * narrow.packets


def four_bit_cnn():
    """small_cnn's first two layers at 4-bit precision."""
    layers = small_cnn_spec().layers[:2]
    return NetworkSpec(
        name="four_bit_cnn",
        layers=tuple(replace(spec, n_bits=4) for spec in layers),
    )


class TestRouteSetAgreement:
    """The replay and the NOC7xx route set price one steady-state wave."""

    @pytest.mark.parametrize("network", [small_cnn_spec, four_bit_cnn])
    def test_replay_flit_hops_equal_the_route_set(self, network):
        plan = plan_network(network(), "heuristic", SimConfig())
        replayed = sum(
            simulate_segment_traffic(seg, zigzag_placement(seg)).flit_hops
            for seg in plan.segments
        )
        priced = sum(
            f.flits * hop_count(f.src, f.dst) for f in plan_route_flows(plan)
        )
        assert replayed == priced
