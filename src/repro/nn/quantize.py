"""Post-training int8 quantization with batch-norm folding.

Follows the integer-arithmetic-only inference recipe of Jacob et al.
(CVPR 2018), in the symmetric (zero-point 0) flavour: every tensor ``x``
is represented as ``x ≈ scale * q`` with ``q`` an int8 array.  Convolution
and linear layers accumulate in int32 and requantize to the next layer's
scale; ReLU/pooling operate directly on the integer grid.

The quantized graph is the *ground truth* the MAICC simulation must match
bit-for-bit: its integer operations use only additions, multiplications,
comparisons and one rounding rescale — exactly what CMem + the scalar
pipeline implement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import GraphError, QuantizationError
from repro.nn.graph import Graph, GraphNode
from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Input,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    _im2col,
    conv2d_output_hw,
)
from repro.utils.fixedpoint import choose_scale, quantize_linear, requantize, saturate


# ---------------------------------------------------------------------------
# Batch-norm folding
# ---------------------------------------------------------------------------

def fold_batchnorm(graph: Graph) -> Graph:
    """Return an equivalent graph with every conv->bn pair fused.

    A BatchNorm2d whose only input is a Conv2d that feeds nothing else is
    absorbed into the conv's weight and bias.
    """
    consumers: Dict[str, List[str]] = {name: [] for name in graph.nodes}
    for name, node in graph.nodes.items():
        for pred in node.inputs:
            consumers[pred].append(name)

    folded = Graph()
    # Map from old node name to the name that now produces its value.
    alias: Dict[str, str] = {}
    for name in graph.topological_order():
        node = graph.nodes[name]
        layer = node.layer
        if isinstance(layer, BatchNorm2d):
            pred_name = alias[node.inputs[0]]
            pred_node = folded.nodes.get(pred_name)
            src = graph.nodes[node.inputs[0]]
            if (
                isinstance(src.layer, Conv2d)
                and consumers[node.inputs[0]] == [name]
                and pred_node is not None
                and isinstance(pred_node.layer, Conv2d)
            ):
                scale, shift = layer.scale_shift()
                conv = pred_node.layer
                new_weight = conv.weight * scale[:, None, None, None]
                new_bias = conv.bias * scale + shift
                pred_node.layer = Conv2d(
                    new_weight, new_bias, stride=conv.stride, padding=conv.padding
                )
                alias[name] = pred_name
                continue
        new_inputs = [alias[i] for i in node.inputs]
        folded.add(name, layer, new_inputs)
        alias[name] = name
    return folded


# ---------------------------------------------------------------------------
# Integer layers
# ---------------------------------------------------------------------------

class QLayer:
    """Base class of integer layers.  ``out_scale`` maps q back to reals."""

    arity = 1

    def __init__(self, out_scale: float, n_bits: int) -> None:
        if out_scale <= 0:
            raise QuantizationError("out_scale must be positive")
        self.out_scale = out_scale
        self.n_bits = n_bits

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class QInput(QLayer):
    def __init__(self, out_scale: float, n_bits: int, shape: tuple) -> None:
        super().__init__(out_scale, n_bits)
        self.shape = shape

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return quantize_linear(x, self.out_scale, self.n_bits)


class QConv2d(QLayer):
    """Integer convolution: int8 x int8 -> int32 -> requant to int8."""

    def __init__(
        self,
        weight_q: np.ndarray,
        bias_q: np.ndarray,
        stride: int,
        padding: int,
        in_scale: float,
        w_scale: float,
        out_scale: float,
        n_bits: int,
    ) -> None:
        super().__init__(out_scale, n_bits)
        self.weight_q = weight_q.astype(np.int64)
        self.bias_q = bias_q.astype(np.int64)
        self.stride = stride
        self.padding = padding
        self.in_scale = in_scale
        self.w_scale = w_scale

    @property
    def requant_ratio(self) -> float:
        return self.in_scale * self.w_scale / self.out_scale

    def accumulate(self, q_in: np.ndarray) -> np.ndarray:
        """The raw int32 accumulator (exposed for MAICC cross-checking)."""
        m, c, r, s = self.weight_q.shape
        oh, ow = conv2d_output_hw(q_in.shape[1], q_in.shape[2], r, s, self.stride, self.padding)
        cols = _im2col(q_in.astype(np.int64), r, s, self.stride, self.padding)
        acc = self.weight_q.reshape(m, c * r * s) @ cols + self.bias_q[:, None]
        return acc.reshape(m, oh, ow)

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (q_in,) = inputs
        return requantize(self.accumulate(q_in), self.requant_ratio, self.n_bits)


class QLinear(QLayer):
    def __init__(
        self,
        weight_q: np.ndarray,
        bias_q: np.ndarray,
        in_scale: float,
        w_scale: float,
        out_scale: float,
        n_bits: int,
    ) -> None:
        super().__init__(out_scale, n_bits)
        self.weight_q = weight_q.astype(np.int64)
        self.bias_q = bias_q.astype(np.int64)
        self.in_scale = in_scale
        self.w_scale = w_scale

    @property
    def requant_ratio(self) -> float:
        return self.in_scale * self.w_scale / self.out_scale

    def accumulate(self, q_in: np.ndarray) -> np.ndarray:
        return self.weight_q @ q_in.reshape(-1).astype(np.int64) + self.bias_q

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (q_in,) = inputs
        return requantize(self.accumulate(q_in), self.requant_ratio, self.n_bits)


class QReLU(QLayer):
    """Integer ReLU: with symmetric scales this is a clamp at zero."""

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (q_in,) = inputs
        return np.maximum(q_in, 0)


class QMaxPool2d(QLayer):
    def __init__(self, kernel: int, stride: int, padding: int, out_scale: float, n_bits: int) -> None:
        super().__init__(out_scale, n_bits)
        self.pool = MaxPool2d(kernel, stride, padding)

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (q_in,) = inputs
        return self.pool.forward(q_in.astype(np.float64)).astype(np.int64)


class QAvgPool2d(QLayer):
    """Average pooling as an integer sum plus a rounding divide."""

    def __init__(self, kernel: int, stride: int, padding: int, out_scale: float, n_bits: int) -> None:
        super().__init__(out_scale, n_bits)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (q_in,) = inputs
        c = q_in.shape[0]
        cols = _im2col(q_in.astype(np.int64), self.kernel, self.kernel, self.stride, self.padding)
        oh, ow = conv2d_output_hw(
            q_in.shape[1], q_in.shape[2], self.kernel, self.kernel, self.stride, self.padding
        )
        sums = cols.reshape(c, self.kernel * self.kernel, oh * ow).sum(axis=1)
        count = self.kernel * self.kernel
        avg = np.floor_divide(2 * sums + count, 2 * count)  # round-half-up
        return saturate(avg, self.n_bits).reshape(c, oh, ow)


class QAdd(QLayer):
    """Residual add: requantize both addends onto the output grid, add."""

    arity = 2

    def __init__(self, in_scales: Sequence[float], out_scale: float, n_bits: int) -> None:
        super().__init__(out_scale, n_bits)
        self.in_scales = list(in_scales)

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        qa = np.rint(a * (self.in_scales[0] / self.out_scale)).astype(np.int64)
        qb = np.rint(b * (self.in_scales[1] / self.out_scale)).astype(np.int64)
        return saturate(qa + qb, self.n_bits)


class QFlatten(QLayer):
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (q_in,) = inputs
        return q_in.reshape(-1)


# ---------------------------------------------------------------------------
# Graph-level quantization
# ---------------------------------------------------------------------------

@dataclass
class QuantizedGraph:
    """An integer twin of a float graph."""

    nodes: Dict[str, GraphNode] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    scales: Dict[str, float] = field(default_factory=dict)
    n_bits: int = 8

    @property
    def output_name(self) -> str:
        consumed = {i for node in self.nodes.values() for i in node.inputs}
        sinks = [n for n in self.order if n not in consumed]
        if len(sinks) != 1:
            raise GraphError(f"expected one output, found {sinks}")
        return sinks[0]

    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Run integer inference; returns every node's integer activation."""
        acts: Dict[str, np.ndarray] = {}
        for name in self.order:
            node = self.nodes[name]
            if isinstance(node.layer, QInput):
                acts[name] = node.layer.forward(x)
            else:
                acts[name] = node.layer.forward(*[acts[i] for i in node.inputs])
        return acts

    def dequantize(self, name: str, q: np.ndarray) -> np.ndarray:
        return q.astype(np.float64) * self.scales[name]


def quantize_graph(
    graph: Graph,
    calibration_inputs: Sequence[np.ndarray],
    n_bits: int = 8,
    *,
    fold_bn: bool = True,
) -> QuantizedGraph:
    """Quantize a float graph to ``n_bits`` symmetric integers.

    Activation scales come from the max magnitude each node produces over
    the calibration inputs; weight scales are per-tensor symmetric.
    """
    if not calibration_inputs:
        raise QuantizationError("at least one calibration input is required")
    if fold_bn:
        graph = fold_batchnorm(graph)

    # Calibration pass: max |activation| per node.
    max_abs: Dict[str, float] = {name: 0.0 for name in graph.nodes}
    for sample in calibration_inputs:
        acts = graph.forward(sample)
        for name, act in acts.items():
            max_abs[name] = max(max_abs[name], float(np.max(np.abs(act))))

    levels = (1 << (n_bits - 1)) - 1
    scales = {
        name: (value / levels if value > 0 else 1.0) for name, value in max_abs.items()
    }

    qgraph = QuantizedGraph(n_bits=n_bits)
    qgraph.scales = scales
    for name in graph.topological_order():
        node = graph.nodes[name]
        layer = node.layer
        in_names = node.inputs
        qlayer = _quantize_layer(layer, name, in_names, scales, n_bits)
        qgraph.nodes[name] = GraphNode(name=name, layer=qlayer, inputs=list(in_names))
        qgraph.order.append(name)
    return qgraph


def _quantize_layer(
    layer: Layer,
    name: str,
    in_names: Sequence[str],
    scales: Dict[str, float],
    n_bits: int,
) -> QLayer:
    out_scale = scales[name]
    if isinstance(layer, Input):
        return QInput(out_scale, n_bits, tuple(layer.shape))
    in_scale = scales[in_names[0]]
    if isinstance(layer, Conv2d):
        w_scale = choose_scale(layer.weight, n_bits)
        weight_q = quantize_linear(layer.weight, w_scale, n_bits)
        bias_q = np.rint(layer.bias / (in_scale * w_scale)).astype(np.int64)
        return QConv2d(
            weight_q, bias_q, layer.stride, layer.padding,
            in_scale, w_scale, out_scale, n_bits,
        )
    if isinstance(layer, Linear):
        w_scale = choose_scale(layer.weight, n_bits)
        weight_q = quantize_linear(layer.weight, w_scale, n_bits)
        bias_q = np.rint(layer.bias / (in_scale * w_scale)).astype(np.int64)
        return QLinear(weight_q, bias_q, in_scale, w_scale, out_scale, n_bits)
    if isinstance(layer, ReLU):
        # Integer ReLU keeps the producer's grid; override the calibrated
        # scale so clamping is exact.
        scales[name] = in_scale
        return QReLU(in_scale, n_bits)
    if isinstance(layer, MaxPool2d):
        scales[name] = in_scale
        return QMaxPool2d(layer.kernel, layer.stride, layer.padding, in_scale, n_bits)
    if isinstance(layer, AvgPool2d):
        scales[name] = in_scale
        return QAvgPool2d(layer.kernel, layer.stride, layer.padding, in_scale, n_bits)
    if isinstance(layer, Add):
        in_scales = [scales[i] for i in in_names]
        return QAdd(in_scales, out_scale, n_bits)
    if isinstance(layer, Flatten):
        scales[name] = in_scale
        return QFlatten(in_scale, n_bits)
    if isinstance(layer, BatchNorm2d):
        raise QuantizationError(
            f"{name}: unfused BatchNorm2d cannot be quantized; enable fold_bn"
        )
    raise QuantizationError(f"{name}: no quantization rule for {type(layer).__name__}")
