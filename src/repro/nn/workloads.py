"""Workload descriptors consumed by the mapping framework and benches.

:func:`resnet18_spec` lists the twenty mapped layers of the paper's
Table 6 (the 7x7 stem is excluded: "we do not include the first layer
because it has very low parallelism with only 3 ifmap channels").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.nn.layers import conv2d_output_hw


def window_reads(size: int, kernel: int, stride: int, padding: int) -> Sequence[int]:
    """Indices along one ifmap axis that some output window reads.

    Output ``o``'s window covers ``kernel`` indices from
    ``o * stride - padding``; padding contributes nothing, so only
    indices in ``[0, size)`` count.  Windows that overlap or abut
    (``kernel >= stride``) read one ``range``; wider strides read a
    disjoint subgrid, returned as a tuple in ascending order.  Plain
    ints, no NumPy: the mappers evaluate this for every candidate
    allocation.
    """
    # Where the last output window starts.
    last = (size + 2 * padding - kernel) // stride * stride - padding
    if kernel >= stride:
        return range(min(size, last + kernel))
    reads: List[int] = []
    for tap in range(kernel):
        # Tap ``tap`` of every window reads one arithmetic progression.
        reads.extend(range((tap - padding) % stride, min(size, last + tap + 1), stride))
    return tuple(sorted(reads))


@dataclass(frozen=True)
class ConvLayerSpec:
    """Geometry of one mapped layer (CONV, 1x1 shortcut CONV, or FC).

    ``h``/``w``/``c`` describe the ifmap, ``m`` the filter count, ``r``/``s``
    the kernel.  FC layers are expressed as 1x1 convolutions over a 1x1
    ifmap, which is exactly how the execution framework runs them.
    """

    index: int
    name: str
    h: int
    w: int
    c: int
    m: int
    r: int = 3
    s: int = 3
    stride: int = 1
    padding: int = 1
    kind: str = "conv"  # conv | shortcut | linear
    n_bits: int = 8

    def __post_init__(self) -> None:
        if min(self.h, self.w, self.c, self.m, self.r, self.s, self.stride) < 1:
            raise ConfigurationError(f"{self.name}: non-positive dimension")

    @property
    def shape(self) -> tuple:
        """Every field but the labels ``index`` and ``name``.

        How a layer maps, times and simulates depends on its shape alone,
        so the mappers and backends compute once per distinct shape within
        one run: the passes of a tiled layer and repeated blocks share it.
        """
        return (
            self.h, self.w, self.c, self.m, self.r, self.s, self.stride,
            self.padding, self.kind, self.n_bits,
        )

    @property
    def ofmap_hw(self) -> tuple:
        return conv2d_output_hw(self.h, self.w, self.r, self.s, self.stride, self.padding)

    @property
    def streamed_hw(self) -> tuple:
        """Ifmap rows and columns some output window reads.

        Their product is the set of ifmap pixels the layer's DC streams,
        in raster order (:func:`window_reads` per axis): every pixel of a
        padded 3x3 layer, the sampled subgrid of a strided 1x1 shortcut.
        """
        return (
            window_reads(self.h, self.r, self.stride, self.padding),
            window_reads(self.w, self.s, self.stride, self.padding),
        )

    @property
    def ifmap_pixels(self) -> int:
        return self.h * self.w

    @property
    def ofmap_pixels(self) -> int:
        oh, ow = self.ofmap_hw
        return oh * ow

    @property
    def macs(self) -> int:
        """Multiply-accumulates to compute the whole layer."""
        oh, ow = self.ofmap_hw
        return oh * ow * self.m * self.c * self.r * self.s

    @property
    def weight_count(self) -> int:
        return self.m * self.c * self.r * self.s


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered list of mapped layers plus a display name."""

    name: str
    layers: tuple

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, index: int) -> ConvLayerSpec:
        """Layer by its 1-based paper index."""
        for spec in self.layers:
            if spec.index == index:
                return spec
        raise ConfigurationError(f"no layer with index {index} in {self.name}")

    @property
    def total_macs(self) -> int:
        return sum(spec.macs for spec in self.layers)


def resnet18_spec() -> NetworkSpec:
    """The 20 mapped layers of ResNet18 as listed in Table 6."""
    layers: List[ConvLayerSpec] = []

    def add(name: str, h: int, c: int, m: int, *, r: int = 3, stride: int = 1,
            padding: int = 1, kind: str = "conv") -> None:
        layers.append(
            ConvLayerSpec(
                index=len(layers) + 1, name=name, h=h, w=h, c=c, m=m,
                r=r, s=r, stride=stride, padding=padding, kind=kind,
            )
        )

    # Stage 1: 56x56, 64 channels.
    for i in range(1, 5):
        add(f"conv1_{i}", 56, 64, 64)
    # Downsample shortcut into stage 2.
    add("shortcut", 56, 64, 128, r=1, stride=2, padding=0, kind="shortcut")
    # Stage 2: first conv strides 56 -> 28.
    add("conv2_1", 56, 64, 128, stride=2)
    for i in range(2, 5):
        add(f"conv2_{i}", 28, 128, 128)
    add("shortcut", 28, 128, 256, r=1, stride=2, padding=0, kind="shortcut")
    add("conv3_1", 28, 128, 256, stride=2)
    for i in range(2, 5):
        add(f"conv3_{i}", 14, 256, 256)
    add("shortcut", 14, 256, 512, r=1, stride=2, padding=0, kind="shortcut")
    add("conv4_1", 14, 256, 512, stride=2)
    for i in range(2, 5):
        add(f"conv4_{i}", 7, 512, 512)
    # Classifier: 512 -> 1000 FC as a 1x1 conv over a 1x1 "image".
    add("linear", 1, 512, 1000, r=1, stride=1, padding=0, kind="linear")
    return NetworkSpec(name="resnet18", layers=tuple(layers))


def small_cnn_spec(h: int = 8, c: int = 8) -> NetworkSpec:
    """Mapped-layer view of the three-conv small CNN (conv1..conv3 and the
    classifier), the network the functional tests build."""
    layers = (
        ConvLayerSpec(1, "conv1", h, h, c, 16),
        ConvLayerSpec(2, "conv2", h, h, 16, 16),
        ConvLayerSpec(3, "conv3", h // 2, h // 2, 16, 32),
        ConvLayerSpec(4, "linear", 1, 1, 32, 10, r=1, s=1, padding=0, kind="linear"),
    )
    return NetworkSpec(name="small_cnn", layers=layers)


def vgg11_spec(input_hw: int = 224) -> NetworkSpec:
    """VGG-11 (Simonyan & Zisserman) as mapped layers.

    The 3-channel stem is excluded for the same low-parallelism reason the
    paper excludes ResNet18's first layer; FC layers map as 1x1 convs.
    """
    layers: List[ConvLayerSpec] = []

    def add(name: str, h: int, c: int, m: int, **kw) -> None:
        layers.append(
            ConvLayerSpec(index=len(layers) + 1, name=name, h=h, w=h,
                          c=c, m=m, **kw)
        )

    h = input_hw // 2  # after the stem's pool
    add("conv2", h, 64, 128)
    h //= 2
    add("conv3_1", h, 128, 256)
    add("conv3_2", h, 256, 256)
    h //= 2
    add("conv4_1", h, 256, 512)
    add("conv4_2", h, 512, 512)
    h //= 2
    add("conv5_1", h, 512, 512)
    add("conv5_2", h, 512, 512)
    add("fc6", 1, 512 * 7 * 7, 4096, r=1, s=1, padding=0, kind="linear")
    add("fc7", 1, 4096, 4096, r=1, s=1, padding=0, kind="linear")
    add("fc8", 1, 4096, 1000, r=1, s=1, padding=0, kind="linear")
    return NetworkSpec(name="vgg11", layers=tuple(layers))


def mlp_spec(widths: Optional[List[int]] = None, name: str = "mlp") -> NetworkSpec:
    """A stack of FC layers (each mapped as a 1x1 conv over a 1x1 ifmap)."""
    widths = widths or [512, 1024, 1024, 256]
    layers = tuple(
        ConvLayerSpec(index=i + 1, name=f"fc{i + 1}", h=1, w=1,
                      c=c_in, m=c_out, r=1, s=1, padding=0, kind="linear")
        for i, (c_in, c_out) in enumerate(zip(widths, widths[1:]))
    )
    return NetworkSpec(name=name, layers=layers)


def lstm_cell_spec(hidden: int = 512, inputs: int = 512) -> NetworkSpec:
    """One LSTM cell step as mapped layers (paper Sec. 2.1).

    The cell's compute is two weight matrices — input-to-hidden and
    hidden-to-hidden, each producing the four stacked gates — plus
    element-wise auxiliary functions (sigmoid/tanh/hadamard) that run on
    the scalar cores and are not mapped.
    """
    layers = (
        ConvLayerSpec(1, "ih_gates", h=1, w=1, c=inputs, m=4 * hidden,
                      r=1, s=1, padding=0, kind="linear"),
        ConvLayerSpec(2, "hh_gates", h=1, w=1, c=hidden, m=4 * hidden,
                      r=1, s=1, padding=0, kind="linear"),
    )
    return NetworkSpec(name=f"lstm{hidden}", layers=layers)


def transformer_block_spec(d_model: int = 512, d_ff: int = 2048,
                           heads: int = 8) -> NetworkSpec:
    """One Transformer encoder block's *weight* matmuls (paper Sec. 2.1).

    Single-token (autoregressive) inference: the Q/K/V/output projections
    and the two FFN layers are static-weight matrix-vector products that
    map exactly like FC layers.  The attention score/value products are
    activation-activation matmuls and run on the scalar cores (their FLOP
    share is negligible at short context for this d_model).
    """
    del heads  # projections are fused across heads
    layers = (
        ConvLayerSpec(1, "q_proj", h=1, w=1, c=d_model, m=d_model,
                      r=1, s=1, padding=0, kind="linear"),
        ConvLayerSpec(2, "k_proj", h=1, w=1, c=d_model, m=d_model,
                      r=1, s=1, padding=0, kind="linear"),
        ConvLayerSpec(3, "v_proj", h=1, w=1, c=d_model, m=d_model,
                      r=1, s=1, padding=0, kind="linear"),
        ConvLayerSpec(4, "out_proj", h=1, w=1, c=d_model, m=d_model,
                      r=1, s=1, padding=0, kind="linear"),
        ConvLayerSpec(5, "ffn_up", h=1, w=1, c=d_model, m=d_ff,
                      r=1, s=1, padding=0, kind="linear"),
        ConvLayerSpec(6, "ffn_down", h=1, w=1, c=d_ff, m=d_model,
                      r=1, s=1, padding=0, kind="linear"),
    )
    return NetworkSpec(name=f"transformer_d{d_model}", layers=layers)
