"""NoC traffic replay of placed segments."""

from dataclasses import replace

import pytest

from repro.analysis import plan_route_flows
from repro.core.perfmodel import PerformanceModel, TimingParams
from repro.core.traffic import simulate_segment_traffic
from repro.mapping.allocation import AllocationResult
from repro.mapping.placement import (
    random_placement,
    raster_placement,
    zigzag_placement,
)
from repro.mapping.segmentation import HeuristicStrategy, Segment
from repro.nn.workloads import (
    ConvLayerSpec,
    NetworkSpec,
    resnet18_spec,
    small_cnn_spec,
)
from repro.sim.accounting import plan_network
from repro.sim.config import SimConfig
from tests.mesh import hop_count

MACHINE = SimConfig()
REGION = MACHINE.chip.compute_region


def one_layer_segment(c, nodes=4):
    spec = ConvLayerSpec(1, "t", h=7, w=7, c=c, m=10)
    alloc = AllocationResult(nodes={1: nodes}, times={1: 1.0})
    return Segment(layers=[spec], allocation=alloc)


def replay(segment, placement, machine=MACHINE):
    return simulate_segment_traffic(segment, placement, machine)


@pytest.fixture(scope="module")
def segment():
    plan = HeuristicStrategy(SimConfig().array_size).plan(
        resnet18_spec(), PerformanceModel().layer_time_fn()
    )
    return plan.segments[2]  # layers 12-15


class TestTrafficReplay:
    def test_zigzag_minimizes_flit_hops(self, segment):
        zig = replay(segment, zigzag_placement(segment, REGION))
        rnd = replay(segment, random_placement(segment, REGION, seed=2))
        assert zig.flit_hops < rnd.flit_hops

    def test_packet_count_placement_invariant(self, segment):
        a = replay(segment, zigzag_placement(segment, REGION))
        b = replay(segment, raster_placement(segment, REGION))
        assert a.packets == b.packets

    def test_wide_channels_double_row_traffic(self, segment):
        narrow, wide = one_layer_segment(256), one_layer_segment(512)
        narrow_traffic = replay(narrow, zigzag_placement(narrow, REGION))
        wide_traffic = replay(wide, zigzag_placement(wide, REGION))
        assert wide_traffic.packets == 2 * narrow_traffic.packets

    @pytest.mark.parametrize("hop", [2, 3])
    def test_replay_charges_the_machines_hop(self, hop):
        """The replay charges ``TimingParams.hop_latency``, the hop the
        tiers charge, not a separately set one."""
        machine = SimConfig(params=TimingParams(hop_latency=hop))
        seg = one_layer_segment(256, nodes=1)
        traffic = replay(seg, zigzag_placement(seg, REGION), machine)
        # DC -> its one computing core is one hop; the 8-bit ifmap vector
        # crosses it as 8 back-to-back 5-flit rows.
        assert traffic.completion_cycles == 8 * (1 * hop + 5 - 1)


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
            replay(seg, zigzag_placement(seg, REGION)).flit_hops
            for seg in plan.segments
        )
        priced = sum(
            f.flits * hop_count(f.src, f.dst)
            for f in plan_route_flows(plan, MACHINE.chip)
        )
        assert replayed == priced
