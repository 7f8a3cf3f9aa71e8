"""Zig-zag placement properties (Fig. 7(c))."""

import pytest

from repro.core.perfmodel import PerformanceModel
from repro.errors import PlacementError
from repro.mapping.placement import Region, zigzag_placement
from repro.mapping.segmentation import HeuristicStrategy
from repro.nn.workloads import resnet18_spec
from repro.sim.config import SimConfig
from tests.mesh import hop_count

REGION = SimConfig().chip.compute_region


@pytest.fixture(scope="module")
def plan():
    return HeuristicStrategy(SimConfig().array_size).plan(
        resnet18_spec(), PerformanceModel().layer_time_fn()
    )


class TestZigZag:
    def test_chain_neighbours_are_adjacent(self, plan, chain_hops):
        """Consecutive cores of a node group sit one hop apart."""
        placement = zigzag_placement(plan.segments[0], REGION)
        for index in placement.dc:
            assert all(h == 1 for h in chain_hops(placement, index))

    def test_average_chain_hops_is_one(self, plan, chain_hops):
        placement = zigzag_placement(plan.segments[0], REGION)
        hops = [h for index in placement.dc for h in chain_hops(placement, index)]
        assert sum(hops) / len(hops) == pytest.approx(1.0)

    def test_all_tiles_unique(self, plan):
        placement = zigzag_placement(plan.segments[1], REGION)
        tiles = list(placement.dc.values())
        for coords in placement.computing.values():
            tiles.extend(coords)
        assert len(tiles) == len(set(tiles))

    def test_tiles_inside_compute_region(self, plan):
        placement = zigzag_placement(plan.segments[0], REGION)
        for coords in placement.computing.values():
            for x, y in coords:
                assert 0 <= x < 15
                assert 1 <= y < 15

    def test_next_layer_dc_is_close(self, plan):
        """Zig-zag keeps the producer chain near the consumer's DC."""
        segment = plan.segments[0]
        placement = zigzag_placement(segment, REGION)
        indices = [s.index for s in segment.layers]
        for producer, consumer in zip(indices, indices[1:]):
            cores = placement.computing[producer]
            target = placement.dc[consumer]
            assert sum(hop_count(c, target) for c in cores) / len(cores) < 30

    def test_oversized_segment_rejected(self, plan):
        big = plan.segments[0]
        with pytest.raises(PlacementError):
            zigzag_placement(big, Region((0, 1), 3, 3))
