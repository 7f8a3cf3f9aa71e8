"""The float graphs the functional and quantization tests run.

ResNet18 at full size and a three-conv CNN small enough for bit-true
end-to-end simulation, with deterministic pseudo-random weights, plus
the shape oracle the model tests check them against
(:func:`output_shape` per layer, :func:`infer_shapes` per graph).  The shipped
examples build their network with
:func:`repro.nn.models.build_residual_cnn`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.graph import Graph
from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Input,
    Linear,
    MaxPool2d,
    ReLU,
    conv2d_output_hw,
)
from repro.nn.models import _bn_init, _Builder, _conv_init


def build_resnet18(
    input_shape: Tuple[int, int, int] = (3, 224, 224),
    num_classes: int = 1000,
    seed: int = 2023,
) -> Graph:
    """ResNet18 (He et al., 2016) as a float graph.

    Layer naming follows the paper's Table 6: stages are ``conv1_x`` ..
    ``conv4_x`` (each with four 3x3 convolutions), downsample shortcuts are
    ``shortcutN``, and the classifier is ``linear``.  The stem (7x7 conv +
    max-pool) is named ``stem``; the paper excludes it from the mapped
    workload because of its 3-channel parallelism.
    """
    rng = np.random.default_rng(seed)
    graph = Graph()
    b = _Builder(graph, rng)
    b.add("input", Input(input_shape))
    # Stem: 7x7/2 conv + BN + ReLU + 3x3/2 max-pool -> 56x56x64.
    b.conv_bn_relu("stem", input_shape[0], 64, r=7, stride=2, padding=3)
    b.add("stem_pool", MaxPool2d(3, 2, 1))

    stage_channels = [64, 128, 256, 512]
    shortcut_index = {1: 5, 2: 10, 3: 15}
    in_c = 64
    for stage, out_c in enumerate(stage_channels, start=1):
        for block in range(2):
            downsample = stage > 1 and block == 0
            stride = 2 if downsample else 1
            block_input = b.prev
            conv_a = f"conv{stage}_{2 * block + 1}"
            conv_b = f"conv{stage}_{2 * block + 2}"
            b.conv_bn_relu(conv_a, in_c, out_c, stride=stride, inputs=[block_input])
            b.conv_bn_relu(conv_b, out_c, out_c, relu=False)
            main = b.prev
            if downsample:
                sc = f"shortcut{shortcut_index[stage - 1]}"
                shortcut_conv = Conv2d(
                    _conv_init(rng, out_c, in_c, 1, 1), stride=2, padding=0
                )
                b.add(sc, shortcut_conv, inputs=[block_input])
                b.add(f"{sc}_bn", _bn_init(rng, out_c))
                residual = b.prev
            else:
                residual = block_input
            b.add(f"add{stage}_{block + 1}", Add(), inputs=[main, residual])
            b.add(f"relu{stage}_{block + 1}", ReLU())
            in_c = out_c

    b.add("avgpool", AvgPool2d(7))
    b.add("flatten", Flatten())
    fan_in = 512
    weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(num_classes, fan_in))
    b.add("linear", Linear(weight, rng.normal(0.0, 0.01, num_classes)))
    return graph


def build_small_cnn(
    input_shape: Tuple[int, int, int] = (8, 8, 8),
    num_classes: int = 10,
    seed: int = 7,
) -> Graph:
    """A three-conv CNN small enough for bit-true end-to-end simulation."""
    rng = np.random.default_rng(seed)
    graph = Graph()
    b = _Builder(graph, rng)
    c, h, w = input_shape
    b.add("input", Input(input_shape))
    b.conv_bn_relu("conv1", c, 16, stride=1, padding=1)
    b.conv_bn_relu("conv2", 16, 16, stride=1, padding=1)
    b.add("pool", MaxPool2d(2))
    b.conv_bn_relu("conv3", 16, 32, stride=1, padding=1)
    b.add("gap", AvgPool2d(h // 2))
    b.add("flatten", Flatten())
    weight = rng.normal(0.0, 0.25, size=(num_classes, 32))
    b.add("linear", Linear(weight))
    return graph


def _conv_shape(layer: Conv2d, shape: tuple) -> tuple:
    c, h, w = shape
    if c != layer.weight.shape[1]:
        raise ShapeError(
            f"conv expects {layer.weight.shape[1]} input channels, got {c}"
        )
    oh, ow = conv2d_output_hw(
        h, w, layer.weight.shape[2], layer.weight.shape[3], layer.stride, layer.padding
    )
    return (layer.weight.shape[0], oh, ow)


def _linear_shape(layer: Linear, shape: tuple) -> tuple:
    if int(np.prod(shape)) != layer.weight.shape[1]:
        raise ShapeError(
            f"linear expects {layer.weight.shape[1]} inputs, got shape {shape}"
        )
    return (layer.weight.shape[0],)


def _batchnorm_shape(layer: BatchNorm2d, shape: tuple) -> tuple:
    if shape[0] != layer.gamma.shape[0]:
        raise ShapeError(
            f"batchnorm expects {layer.gamma.shape[0]} channels, got {shape[0]}"
        )
    return shape


def _add_shape(layer: Add, a: tuple, b: tuple) -> tuple:
    if tuple(a) != tuple(b):
        raise ShapeError(f"residual add of mismatched shapes {a} and {b}")
    return a


_SHAPES = {
    Input: lambda layer: layer.shape,
    Conv2d: _conv_shape,
    Linear: _linear_shape,
    BatchNorm2d: _batchnorm_shape,
    ReLU: lambda layer, shape: shape,
    Add: _add_shape,
    Flatten: lambda layer, shape: (int(np.prod(shape)),),
    MaxPool2d: lambda layer, shape: layer.output_shape(shape),
    AvgPool2d: lambda layer, shape: layer.output_shape(shape),
}


def output_shape(layer, *input_shapes: tuple) -> tuple:
    """The shape ``layer`` produces from inputs of ``input_shapes``."""
    return tuple(_SHAPES[type(layer)](layer, *input_shapes))


def infer_shapes(graph: Graph) -> Dict[str, tuple]:
    """Shape of every node's output, layer by layer."""
    shapes: Dict[str, tuple] = {}
    for name in graph.topological_order():
        node = graph.nodes[name]
        shapes[name] = output_shape(
            node.layer, *[shapes[i] for i in node.inputs]
        )
    return shapes
