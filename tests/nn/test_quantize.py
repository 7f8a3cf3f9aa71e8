"""Quantization: BN folding, integer layers, end-to-end error bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.nn.graph import Graph
from repro.nn.layers import BatchNorm2d, Conv2d, Input, ReLU
from repro.nn.models import build_residual_cnn
from repro.nn.quantize import (
    QAvgPool2d,
    QAdd,
    QConv2d,
    QReLU,
    fold_batchnorm,
    quantize_graph,
)
from repro.nn.reference import quantization_error, run_float, run_quantized
from tests.models import build_small_cnn


def conv_bn_graph(seed=0):
    rng = np.random.default_rng(seed)
    g = Graph()
    g.add("in", Input((3, 6, 6)))
    g.add("conv", Conv2d(rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4), padding=1), ["in"])
    g.add("bn", BatchNorm2d(
        rng.uniform(0.5, 1.5, 4), rng.normal(size=4),
        rng.normal(size=4), rng.uniform(0.5, 1.5, 4)), ["conv"])
    g.add("relu", ReLU(), ["bn"])
    return g


class TestBatchNormFolding:
    def test_folding_preserves_function(self):
        g = conv_bn_graph()
        folded = fold_batchnorm(g)
        x = np.random.default_rng(1).normal(size=(3, 6, 6))
        assert np.allclose(run_float(g, x), run_float(folded, x))

    def test_folded_graph_has_no_bn(self):
        folded = fold_batchnorm(conv_bn_graph())
        assert not any(isinstance(n.layer, BatchNorm2d) for n in folded.nodes.values())

    def test_shared_conv_output_not_folded(self):
        """A BN whose conv feeds another consumer cannot be absorbed."""
        rng = np.random.default_rng(2)
        g = Graph()
        g.add("in", Input((3, 4, 4)))
        g.add("conv", Conv2d(rng.normal(size=(3, 3, 3, 3)), padding=1), ["in"])
        g.add("bn", BatchNorm2d(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3)), ["conv"])
        g.add("other", ReLU(), ["conv"])
        from repro.nn.layers import Add

        g.add("join", Add(), ["bn", "other"])
        folded = fold_batchnorm(g)
        assert any(isinstance(n.layer, BatchNorm2d) for n in folded.nodes.values())
        x = rng.normal(size=(3, 4, 4))
        assert np.allclose(run_float(g, x), run_float(folded, x))


class TestQuantizedGraph:
    def test_requires_calibration_input(self):
        with pytest.raises(QuantizationError):
            quantize_graph(conv_bn_graph(), [])

    def test_small_cnn_error_bounded(self):
        g = build_small_cnn()
        xs = [np.random.default_rng(i).normal(size=(8, 8, 8)) for i in range(3)]
        qg = quantize_graph(g, xs)
        assert quantization_error(g, qg, xs) < 0.2

    def test_residual_network_quantizes(self):
        g = build_residual_cnn()
        x = np.random.default_rng(5).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        out = run_quantized(qg, x)
        assert out.shape == (10,)
        assert any(isinstance(n.layer, QAdd) for n in qg.nodes.values())

    def test_activations_within_int8(self):
        g = build_small_cnn()
        x = np.random.default_rng(7).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        for name, act in qg.forward(x).items():
            assert act.min() >= -128 and act.max() <= 127, name

    def test_relu_keeps_producer_scale(self):
        g = conv_bn_graph()
        qg = quantize_graph(g, [np.random.default_rng(0).normal(size=(3, 6, 6))])
        assert qg.scales["relu"] == qg.scales["conv"]

    def test_unfolded_bn_rejected(self):
        g = conv_bn_graph()
        with pytest.raises(QuantizationError):
            quantize_graph(g, [np.zeros((3, 6, 6))], fold_bn=False)

    def test_dequantize(self):
        g = build_small_cnn()
        x = np.random.default_rng(9).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        q_out = run_quantized(qg, x)
        deq = qg.dequantize(qg.output_name, q_out)
        ref = run_float(g, x)
        assert np.linalg.norm(deq - ref) / np.linalg.norm(ref) < 0.2


class TestIntegerLayers:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_qconv_accumulator_is_exact_integer_conv(self, seed):
        rng = np.random.default_rng(seed)
        wq = rng.integers(-127, 128, size=(2, 3, 3, 3))
        bq = rng.integers(-100, 100, size=2)
        layer = QConv2d(wq, bq, 1, 1, 0.1, 0.01, 0.05, 8)
        q_in = rng.integers(-128, 128, size=(3, 5, 5))
        acc = layer.accumulate(q_in)
        ref = Conv2d(wq.astype(float), bq.astype(float), 1, 1).forward(q_in.astype(float))
        assert np.array_equal(acc, ref.astype(np.int64))

    def test_qrelu_clamps(self):
        layer = QReLU(1.0, 8)
        out = layer.forward(np.array([-5, 0, 5]))
        assert out.tolist() == [0, 0, 5]

    def test_qavgpool_rounds_half_up(self):
        layer = QAvgPool2d(2, 2, 0, 1.0, 8)
        q = np.array([[[1, 2], [2, 2]]])  # mean 1.75 -> 2
        assert layer.forward(q)[0, 0, 0] == 2

    def test_qadd_requantizes_both_inputs(self):
        layer = QAdd([0.5, 0.25], 0.25, 8)
        out = layer.forward(np.array([2]), np.array([4]))
        assert out[0] == 8  # 2*0.5/0.25 + 4*0.25/0.25
