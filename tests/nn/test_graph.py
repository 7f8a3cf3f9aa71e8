"""DAG graph construction, ordering, and execution."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.nn.graph import Graph
from repro.nn.layers import Add, Input, ReLU
from tests.models import infer_shapes


def diamond_graph():
    g = Graph()
    g.add("in", Input((2, 2, 2)))
    g.add("left", ReLU(), ["in"])
    g.add("right", ReLU(), ["in"])
    g.add("join", Add(), ["left", "right"])
    return g


class TestConstruction:
    def test_duplicate_name_rejected(self):
        g = Graph()
        g.add("a", Input((1,)))
        with pytest.raises(GraphError):
            g.add("a", ReLU(), ["a"])

    def test_arity_checked(self):
        g = Graph()
        g.add("in", Input((1,)))
        with pytest.raises(GraphError):
            g.add("bad", Add(), ["in"])

    def test_input_takes_no_predecessors(self):
        g = Graph()
        g.add("in", Input((1,)))
        with pytest.raises(GraphError):
            g.add("in2", Input((1,)), ["in"])

    def test_unknown_input_detected(self):
        g = Graph()
        g.add("in", Input((1,)))
        g.add("x", ReLU(), ["ghost"])
        with pytest.raises(GraphError):
            g.topological_order()


class TestTopology:
    def test_topological_order_respects_edges(self):
        g = diamond_graph()
        order = g.topological_order()
        assert order.index("in") < order.index("left")
        assert order.index("left") < order.index("join")
        assert order.index("right") < order.index("join")

    def test_output_detection(self):
        assert diamond_graph().output_name == "join"

    def test_multiple_sinks_rejected(self):
        g = Graph()
        g.add("in", Input((1,)))
        g.add("a", ReLU(), ["in"])
        g.add("b", ReLU(), ["in"])
        with pytest.raises(GraphError):
            g.output_name

    def test_cycle_detected(self):
        g = Graph()
        g.add("in", Input((1,)))
        g.add("a", ReLU(), ["b"])
        g.add("b", ReLU(), ["a"])
        with pytest.raises(GraphError):
            g.topological_order()


class TestExecution:
    def test_diamond_forward(self):
        g = diamond_graph()
        x = np.full((2, 2, 2), -3.0)
        acts = g.forward(x)
        assert np.all(acts["join"] == 0.0)
        x = np.full((2, 2, 2), 3.0)
        assert np.all(g.forward(x)["join"] == 6.0)

    def test_shape_inference(self):
        shapes = infer_shapes(diamond_graph())
        assert shapes["join"] == (2, 2, 2)
