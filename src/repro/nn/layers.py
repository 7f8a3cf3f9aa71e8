"""Float layer definitions (single sample, CHW layout).

These are the building blocks of the float graphs; quantization converts
them to integer layers (:mod:`repro.nn.quantize`).  Shapes are CHW tuples;
batch size is 1 throughout, matching the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ShapeError

Shape = Tuple[int, ...]


class Layer:
    """Base class: a pure function of one (or two) CHW arrays."""

    arity = 1

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class Input(Layer):
    """Graph entry point carrying the input shape."""

    shape: Shape

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        if tuple(x.shape) != tuple(self.shape):
            raise ShapeError(f"input shape {x.shape} != declared {self.shape}")
        return x


def conv2d_output_hw(h: int, w: int, r: int, s: int, stride: int, padding: int) -> Tuple[int, int]:
    return (h + 2 * padding - r) // stride + 1, (w + 2 * padding - s) // stride + 1


def _im2col(x: np.ndarray, r: int, s: int, stride: int, padding: int) -> np.ndarray:
    """Unfold a CHW array into (C*R*S, OH*OW) patches."""
    c, h, w = x.shape
    oh, ow = conv2d_output_hw(h, w, r, s, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c, r, s, oh, ow), dtype=x.dtype)
    for i in range(r):
        for j in range(s):
            cols[:, i, j] = x[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * r * s, oh * ow)


class Conv2d(Layer):
    """2D convolution with weight (M, C, R, S) and optional bias (M,)."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 4:
            raise ShapeError(f"conv weight must be 4-D (M,C,R,S), got {weight.shape}")
        self.weight = weight
        self.bias = (
            np.zeros(weight.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
        )
        if self.bias.shape != (weight.shape[0],):
            raise ShapeError(f"bias shape {self.bias.shape} != ({weight.shape[0]},)")
        self.stride = stride
        self.padding = padding

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        m, c, r, s = self.weight.shape
        oh, ow = conv2d_output_hw(x.shape[1], x.shape[2], r, s, self.stride, self.padding)
        cols = _im2col(x, r, s, self.stride, self.padding)
        out = self.weight.reshape(m, c * r * s) @ cols + self.bias[:, None]
        return out.reshape(m, oh, ow)


class Linear(Layer):
    """Fully connected layer: weight (out, in), bias (out,)."""

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"linear weight must be 2-D, got {weight.shape}")
        self.weight = weight
        self.bias = (
            np.zeros(weight.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
        )

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return self.weight @ x.reshape(-1) + self.bias


class BatchNorm2d(Layer):
    """Inference-time batch norm: a per-channel affine transform."""

    def __init__(
        self,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        eps: float = 1e-5,
    ) -> None:
        self.gamma = np.asarray(gamma, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.running_mean = np.asarray(running_mean, dtype=np.float64)
        self.running_var = np.asarray(running_var, dtype=np.float64)
        self.eps = eps

    def scale_shift(self) -> Tuple[np.ndarray, np.ndarray]:
        """The equivalent per-channel (scale, shift) for folding into convs."""
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        shift = self.beta - scale * self.running_mean
        return scale, shift

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        scale, shift = self.scale_shift()
        return x * scale[:, None, None] + shift[:, None, None]


class ReLU(Layer):
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return np.maximum(x, 0.0)


class _Pool2d(Layer):
    def __init__(self, kernel: int, stride: Optional[int] = None, padding: int = 0) -> None:
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding

    def output_shape(self, *input_shapes: Shape) -> Shape:
        (shape,) = input_shapes
        c, h, w = shape
        oh, ow = conv2d_output_hw(h, w, self.kernel, self.kernel, self.stride, self.padding)
        return (c, oh, ow)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        c = x.shape[0]
        cols = _im2col(x, self.kernel, self.kernel, self.stride, self.padding)
        oh, ow = self.output_shape(x.shape)[1:]
        return cols.reshape(c, self.kernel * self.kernel, oh, ow)


class MaxPool2d(_Pool2d):
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        if self.padding:
            # Pad with -inf so padding never wins the max.
            pad = self.padding
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
            self_pad, self.padding = self.padding, 0
            try:
                return self._windows(x).max(axis=1)
            finally:
                self.padding = self_pad
        return self._windows(x).max(axis=1)


class AvgPool2d(_Pool2d):
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return self._windows(x).mean(axis=1)


class Add(Layer):
    """Element-wise residual addition of two same-shaped tensors."""

    arity = 2

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        return a + b


class Flatten(Layer):
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return x.reshape(-1)
