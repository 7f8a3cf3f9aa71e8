"""Single-node driver: Table 4 workload shape and scheduling trends."""

import numpy as np
import pytest

from repro.core.node import MAICCNode, table4_workload
from repro.errors import ConfigurationError
from repro.nn.workloads import ConvLayerSpec
from repro.riscv.pipeline import PipelineConfig


def reduced_table4():
    """The Table 4 workload scaled to a 5x5 ifmap for fast unit tests."""
    return ConvLayerSpec(0, "t4small", h=5, w=5, c=256, m=5, padding=0)


@pytest.fixture(scope="module")
def node_and_data():
    spec = reduced_table4()
    rng = np.random.default_rng(99)
    weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-100, 100, size=spec.m)
    ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
    return MAICCNode(spec, weights, bias), ifmap


class TestWorkload:
    def test_table4_spec(self):
        spec = table4_workload()
        assert (spec.h, spec.w, spec.c, spec.m) == (9, 9, 256, 5)
        assert spec.ofmap_hw == (7, 7)

    def test_weights_shape_validated(self):
        spec = reduced_table4()
        with pytest.raises(ConfigurationError):
            MAICCNode(spec, np.zeros((2, 2, 3, 3)))

    def test_ifmap_shape_validated(self, node_and_data):
        node, _ = node_and_data
        with pytest.raises(ConfigurationError):
            node.run(np.zeros((256, 4, 4)))


class TestBitTrue(object):
    def test_accumulators_match_reference(self, node_and_data):
        node, ifmap = node_and_data
        result = node.run(ifmap)
        assert np.array_equal(result.psums, node.reference(ifmap))

    def test_cmem_busy_cycles_reported(self, node_and_data):
        node, ifmap = node_and_data
        result = node.run(ifmap)
        assert result.cmem_busy_cycles > 0
        assert result.cmem_energy_pj > 0

    def test_repeat_runs_are_bit_identical(self):
        spec = ConvLayerSpec(
            index=0, name="rerun[4x4x16]", h=4, w=4, c=16, m=2,
            r=3, s=3, stride=1, padding=0,
        )
        rng = np.random.default_rng(17)
        weights = rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s))
        bias = rng.integers(-1000, 1000, spec.m)
        ifmap = rng.integers(-128, 128, (spec.c, spec.h, spec.w))
        node = MAICCNode(spec, weights, bias)
        first = node.run(ifmap)
        second = node.run(ifmap)
        assert second.stats.cycles == first.stats.cycles
        assert second.stats.instructions == first.stats.instructions
        assert second.stats.category_cycles == first.stats.category_cycles
        assert np.array_equal(second.psums, first.psums)
        assert np.array_equal(second.outputs, first.outputs)
        assert second.forwarded_rows == first.forwarded_rows
        np.testing.assert_array_equal(first.psums, node.reference(ifmap))


class TestSchedulingTrends:
    """The Table 5 relationships on the reduced workload."""

    @pytest.fixture(scope="class")
    def cycles(self, node_and_data):
        node, ifmap = node_and_data
        out = {}
        for queue in (0, 2):
            for static in (False, True):
                cfg = PipelineConfig(cmem_queue_size=queue)
                out[(queue, static)] = node.run(
                    ifmap, static=static, pipeline=cfg
                ).stats.cycles
        return out

    def test_queue_helps(self, cycles):
        assert cycles[(2, False)] <= cycles[(0, False)]

    def test_static_scheduling_helps(self, cycles):
        assert cycles[(2, True)] < cycles[(2, False)]

    def test_static_gain_substantial(self, cycles):
        gain = 1 - cycles[(2, True)] / cycles[(2, False)]
        assert gain > 0.05  # paper: ~16%

    def test_results_invariant_across_configs(self, node_and_data):
        node, ifmap = node_and_data
        ref = node.reference(ifmap)
        for queue in (0, 1, 4):
            res = node.run(ifmap, pipeline=PipelineConfig(cmem_queue_size=queue))
            assert np.array_equal(res.psums, ref)
