"""A quantized graph's mapped layers, and the two paths that run them.

:func:`network_spec_of` hands a quantized graph's conv/FC layers to the
chip-level simulators; :func:`simulate_quantized_graph` runs the same
layers on the functional node groups.
"""

import numpy as np
import pytest

from repro.core import functional
from repro.core.functional import network_spec_of, simulate_quantized_graph
from repro.errors import MappingError
from repro.nn.graph import Graph
from repro.nn.layers import Input, ReLU
from repro.nn.models import build_residual_cnn
from repro.nn.quantize import quantize_graph
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.sim import simulate
from tests.models import build_small_cnn


@pytest.fixture(scope="module")
def quantized():
    rng = np.random.default_rng(5)
    calibration = [rng.normal(size=(8, 8, 8)) for _ in range(2)]
    qgraph = quantize_graph(build_small_cnn(), calibration)
    return qgraph, network_spec_of(qgraph, "small_cnn")


@pytest.fixture(scope="module")
def residual():
    rng = np.random.default_rng(1)
    return quantize_graph(build_residual_cnn(), [rng.normal(size=(8, 8, 8))])


class TestNetworkSpecDerivation:
    def test_conv_and_fc_layers_extracted(self, quantized):
        _, network = quantized
        kinds = [s.kind for s in network]
        assert kinds.count("linear") == 1
        assert kinds.count("conv") == 3

    def test_shapes_follow_pooling(self, quantized):
        _, network = quantized
        conv3 = next(s for s in network if s.name == "conv3")
        assert (conv3.h, conv3.w, conv3.c) == (4, 4, 16)  # after 2x2 pool

    def test_aux_only_graph_rejected(self):
        g = Graph()
        g.add("in", Input((4, 4, 4)))
        g.add("relu", ReLU(), ["in"])
        qg = quantize_graph(g, [np.zeros((4, 4, 4))])
        with pytest.raises(MappingError):
            network_spec_of(qg)

    def test_small_cnn_is_its_workload_spec(self, quantized):
        """``small_cnn_spec`` is a hand-written copy of the derived layers."""
        _, network = quantized
        assert network == small_cnn_spec()

    def test_residual_cnn_layers(self, residual):
        """The residual add maps nothing, and the FC layer takes the 16
        channels the global pool leaves."""
        assert network_spec_of(residual, "residual-cnn") == NetworkSpec(
            name="residual-cnn",
            layers=(
                ConvLayerSpec(1, "conv1", h=8, w=8, c=8, m=16),
                ConvLayerSpec(2, "conv2", h=8, w=8, c=16, m=16),
                ConvLayerSpec(3, "conv3", h=8, w=8, c=16, m=16),
                ConvLayerSpec(4, "linear", h=1, w=1, c=16, m=10, r=1, s=1,
                              padding=0, kind="linear"),
            ),
        )


class TestDeployment:
    def test_performance_populated(self, quantized):
        """The derived layers map and simulate on the chip."""
        _, network = quantized
        report = simulate(network)
        assert report.latency_ms > 0
        assert report.throughput_samples_s > 0


class TestInference:
    def test_outputs_match_quantized_reference(self, quantized, monkeypatch):
        """The functional path runs exactly the derived layers, and its
        integer outputs equal the quantized reference."""
        qgraph, network = quantized
        ran = []
        build = functional.FunctionalNodeGroup.__init__

        def spy(group, spec, *args, **kwargs):
            ran.append(spec)
            build(group, spec, *args, **kwargs)

        monkeypatch.setattr(functional.FunctionalNodeGroup, "__init__", spy)
        x = np.random.default_rng(9).normal(size=(8, 8, 8))
        out = qgraph.output_name
        assert np.array_equal(
            simulate_quantized_graph(qgraph, x)[out], qgraph.forward(x)[out]
        )
        assert tuple(ran) == network.layers

    def test_residual_model_deploys(self, residual):
        """Derive, simulate and run the residual CNN end to end."""
        assert simulate(network_spec_of(residual)).latency_ms > 0
        x = np.random.default_rng(2).normal(size=(8, 8, 8))
        outputs = simulate_quantized_graph(residual, x)
        assert outputs[residual.output_name].shape == (10,)
