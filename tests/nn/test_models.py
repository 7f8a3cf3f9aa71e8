"""Model builders: shapes, determinism, paper naming."""

import numpy as np
import pytest

from repro.nn.graph import Graph
from repro.nn.models import build_residual_cnn
from tests.models import build_resnet18, build_small_cnn, infer_shapes


class TestResNet18:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_resnet18()

    @pytest.fixture(scope="class")
    def shapes(self, graph):
        return infer_shapes(graph)

    def test_stage_shapes(self, shapes):
        assert shapes["stem_pool"] == (64, 56, 56)
        assert shapes["conv1_4"] == (64, 56, 56)
        assert shapes["conv2_1"] == (128, 28, 28)
        assert shapes["conv3_1"] == (256, 14, 14)
        assert shapes["conv4_4"] == (512, 7, 7)
        assert shapes["linear"] == (1000,)

    def test_paper_layer_names_present(self, graph):
        for stage in range(1, 5):
            for i in range(1, 5):
                assert f"conv{stage}_{i}" in graph.nodes
        for idx in (5, 10, 15):
            assert f"shortcut{idx}" in graph.nodes

    def test_twenty_mapped_layers(self, graph):
        convs = [
            n for n in graph.nodes
            if n.startswith("conv") and not n.endswith(("bn", "relu"))
        ]
        shortcuts = [
            n for n in graph.nodes
            if n.startswith("shortcut") and not n.endswith("bn")
        ]
        assert len(convs) + len(shortcuts) + 1 == 20  # + linear

    def test_deterministic_weights(self):
        a = build_resnet18(seed=3)
        b = build_resnet18(seed=3)
        assert np.array_equal(a.nodes["conv1_1"].layer.weight,
                              b.nodes["conv1_1"].layer.weight)
        c = build_resnet18(seed=4)
        assert not np.array_equal(a.nodes["conv1_1"].layer.weight,
                                  c.nodes["conv1_1"].layer.weight)

    def test_custom_classes(self):
        g = build_resnet18(num_classes=10)
        assert infer_shapes(g)["linear"] == (10,)


class TestSmallModels:
    def test_small_cnn_forward(self):
        g = build_small_cnn()
        out = g.forward(np.zeros((8, 8, 8)))[g.output_name]
        assert out.shape == (10,)

    def test_residual_cnn_has_add(self):
        g = build_residual_cnn()
        from repro.nn.layers import Add

        assert any(isinstance(n.layer, Add) for n in g.nodes.values())
        out = g.forward(np.zeros((8, 8, 8)))[g.output_name]
        assert out.shape == (10,)
