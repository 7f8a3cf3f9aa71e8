"""End-to-end integration: every abstraction level agrees.

The chain under test: float model -> int8 quantization -> functional
node-group execution (NumPy-fast and bit-line-true) -> single-node
cycle-level assembly execution -> chip-level mapping and simulation.
"""

import numpy as np
import pytest

from repro.core.functional import simulate_quantized_graph
from repro.core.node import MAICCNode
from repro.nn.models import build_residual_cnn
from repro.nn.quantize import QConv2d, quantize_graph
from repro.nn.workloads import ConvLayerSpec, small_cnn_spec
from repro.sim import simulate
from tests.models import build_small_cnn


@pytest.fixture(scope="module")
def quantized_small_cnn():
    graph = build_small_cnn()
    x = np.random.default_rng(21).normal(size=(8, 8, 8))
    return graph, quantize_graph(graph, [x]), x


class TestFunctionalStack:
    def test_fast_functional_equals_reference(self, quantized_small_cnn):
        _, qg, x = quantized_small_cnn
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    @pytest.mark.slow
    def test_bit_true_functional_equals_reference(self, quantized_small_cnn):
        _, qg, x = quantized_small_cnn
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x, bit_true=True)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name


class TestCycleLevelStack:
    def test_assembly_kernel_matches_quantized_conv(self, quantized_small_cnn):
        """One real conv layer of the quantized net runs on the cycle-level
        node and reproduces the reference int32 accumulators."""
        _, qg, x = quantized_small_cnn
        acts = qg.forward(x)
        conv_name = "conv2"
        layer = qg.nodes[conv_name].layer
        assert isinstance(layer, QConv2d)
        q_in = acts[qg.nodes[conv_name].inputs[0]]
        m, c, r, s = layer.weight_q.shape
        # The 16x(3x3x16) layer exceeds one node; run a 4-filter slice.
        spec = ConvLayerSpec(
            0, conv_name, h=q_in.shape[1], w=q_in.shape[2], c=c, m=4,
            r=r, s=s, stride=layer.stride, padding=layer.padding,
        )
        node = MAICCNode(spec, layer.weight_q[:4], layer.bias_q[:4])
        result = node.run(q_in)
        assert np.array_equal(result.psums, layer.accumulate(q_in)[:4])


class TestChipStack:
    def test_small_cnn_maps_and_runs(self):
        for strategy in ("single-layer", "greedy", "heuristic"):
            result = simulate(small_cnn_spec(), strategy=strategy)
            assert result.total_cycles > 0
            assert 0 < result.average_power_w < 50

    def test_residual_network_functional(self):
        graph = build_residual_cnn()
        x = np.random.default_rng(33).normal(size=(8, 8, 8))
        qg = quantize_graph(graph, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        assert np.array_equal(ref[qg.output_name], sim[qg.output_name])
