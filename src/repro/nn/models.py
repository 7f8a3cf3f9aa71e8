"""Float model builders: a small CNN with one residual block.

The custom-network example quantizes it and runs it bit-true.  Weights
are deterministic pseudo-random (He-style scaling): the paper's
evaluation measures architecture behaviour, not accuracy, and pretrained
weights are unavailable offline — the property that matters is that the
simulated hardware reproduces the reference integer arithmetic exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.graph import Graph
from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Input,
    Linear,
    ReLU,
)


def _conv_init(rng: np.ndarray, m: int, c: int, r: int, s: int) -> np.ndarray:
    fan_in = c * r * s
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(m, c, r, s))


def _bn_init(rng, channels: int) -> BatchNorm2d:
    return BatchNorm2d(
        gamma=rng.uniform(0.5, 1.5, channels),
        beta=rng.normal(0.0, 0.1, channels),
        running_mean=rng.normal(0.0, 0.2, channels),
        running_var=rng.uniform(0.5, 1.5, channels),
    )


class _Builder:
    """Tiny helper tracking the previous node for linear chains."""

    def __init__(self, graph: Graph, rng) -> None:
        self.graph = graph
        self.rng = rng
        self.prev: Optional[str] = None

    def add(self, name: str, layer, inputs=None) -> str:
        if inputs is None:
            inputs = [self.prev] if self.prev is not None else []
        self.graph.add(name, layer, inputs)
        self.prev = name
        return name

    def conv_bn_relu(
        self, name: str, c: int, m: int, *, r: int = 3, stride: int = 1,
        padding: int = 1, relu: bool = True, inputs=None,
    ) -> str:
        conv = Conv2d(_conv_init(self.rng, m, c, r, r), stride=stride, padding=padding)
        self.add(f"{name}", conv, inputs)
        self.add(f"{name}_bn", _bn_init(self.rng, m))
        if relu:
            self.add(f"{name}_relu", ReLU())
        return self.prev


def build_residual_cnn(
    input_shape: Tuple[int, int, int] = (8, 8, 8),
    num_classes: int = 10,
    seed: int = 13,
) -> Graph:
    """A small network with one residual block (tests QAdd paths)."""
    rng = np.random.default_rng(seed)
    graph = Graph()
    b = _Builder(graph, rng)
    b.add("input", Input(input_shape))
    b.conv_bn_relu("conv1", input_shape[0], 16, stride=1, padding=1)
    trunk = b.prev
    b.conv_bn_relu("conv2", 16, 16, stride=1, padding=1, inputs=[trunk])
    b.conv_bn_relu("conv3", 16, 16, relu=False)
    b.add("res_add", Add(), inputs=[b.prev, trunk])
    b.add("res_relu", ReLU())
    b.add("gap", AvgPool2d(input_shape[1]))
    b.add("flatten", Flatten())
    weight = rng.normal(0.0, 0.25, size=(num_classes, 16))
    b.add("linear", Linear(weight))
    return graph
