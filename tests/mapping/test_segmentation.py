"""The three segmentation strategies against the paper's boundaries."""

import pytest

from repro.core.perfmodel import PerformanceModel
from repro.errors import MappingError
from repro.mapping.segmentation import (
    GreedyStrategy,
    HeuristicStrategy,
    SingleLayerStrategy,
    STRATEGIES,
)
from repro.nn.workloads import resnet18_spec
from repro.sim.config import SimConfig

ARRAY = SimConfig().array_size


@pytest.fixture(scope="module")
def timing():
    return PerformanceModel().layer_time_fn()


@pytest.fixture(scope="module")
def network():
    return resnet18_spec()


class TestSingleLayer:
    def test_one_segment_per_layer(self, network, timing):
        plan = SingleLayerStrategy(ARRAY).plan(network, timing)
        assert len(plan.segments) == 20
        assert all(len(s.layers) == 1 for s in plan.segments)


class TestGreedy:
    def test_paper_segment_boundaries(self, network, timing):
        """Greedy packs layers 1-12 and 13-15 (Sec. 6.2)."""
        plan = GreedyStrategy(ARRAY).plan(network, timing)
        indices = [[s.index for s in seg.layers] for seg in plan.segments]
        assert indices[0] == list(range(1, 13))
        assert indices[1] == [13, 14, 15]

    def test_minimum_allocations(self, network, timing):
        plan = GreedyStrategy(ARRAY).plan(network, timing)
        # conv1_1 gets 4 computing cores + 1 DC = 5 (paper Table 6).
        assert plan.nodes_of(1) == 5
        assert plan.nodes_of(7) == 14

    def test_segments_fit_budget(self, network, timing):
        plan = GreedyStrategy(array_size=208).plan(network, timing)
        for seg in plan.segments:
            assert seg.total_nodes <= 208


class TestHeuristic:
    def test_paper_segmentation(self, network, timing):
        """Heuristic groups 1-6, 7-11, 12-15, then 16..20 alone."""
        plan = HeuristicStrategy(ARRAY).plan(network, timing)
        indices = [[s.index for s in seg.layers] for seg in plan.segments]
        assert indices[0] == [1, 2, 3, 4, 5, 6]
        assert indices[1] == [7, 8, 9, 10, 11]
        assert indices[2] == [12, 13, 14, 15]
        assert indices[3:] == [[16], [17], [18], [19], [20]]

    def test_groups_share_ifmap_size(self, network, timing):
        plan = HeuristicStrategy(ARRAY).plan(network, timing)
        for seg in plan.segments:
            sizes = {(s.h, s.w) for s in seg.layers}
            assert len(sizes) == 1

    def test_uses_more_nodes_than_greedy(self, network, timing):
        greedy = GreedyStrategy(ARRAY).plan(network, timing)
        heuristic = HeuristicStrategy(ARRAY).plan(network, timing)
        assert heuristic.nodes_of(1) >= greedy.nodes_of(1)

    def test_budget_respected(self, network, timing):
        plan = HeuristicStrategy(array_size=208).plan(network, timing)
        for seg in plan.segments:
            assert seg.total_nodes <= 208


class TestPlanQueries:
    def test_segment_of(self, network, timing):
        plan = HeuristicStrategy(ARRAY).plan(network, timing)
        assert 1 in plan.segment_of(1).allocation.nodes
        with pytest.raises(MappingError):
            plan.segment_of(99)

    def test_registry(self):
        assert set(STRATEGIES) == {"single-layer", "greedy", "heuristic"}


class TestSmallArray:
    def test_layer_too_big_for_array(self, network, timing):
        with pytest.raises(MappingError):
            GreedyStrategy(array_size=4).plan(network, timing)
