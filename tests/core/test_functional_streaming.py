"""The streamed schedule computes exactly what layer-by-layer does, and is
the oracle of the streamed-pixel rule both queueing tiers time.

:class:`StreamedSegmentExecutor` runs a chain of quantized conv layers
strictly in the Fig. 7(a) order: producer ifmap pixels arrive one at a
time in raster order; an ofmap pixel requantizes and forwards the moment
its last contribution lands; each downstream layer consumes its input
pixels in raster order as they become available.  Its outputs must equal
layer-by-layer execution exactly, which proves the streamed schedule
causally valid.

The executor also records which ifmap pixels each layer absorbs with at
least one contribution (its streamed vectors) and which absorbed pixel
finalizes each ofmap pixel.  Nothing about it is derived from the timing
model, so it checks :meth:`PerformanceModel.required_iterations` and
:func:`repro.core.streaming.dependence_map` independently.
"""

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.perfmodel import PerformanceModel
from repro.core.streaming import dependence_map
from repro.errors import ConfigurationError, SimulationError
from repro.nn.layers import conv2d_output_hw
from repro.nn.quantize import QConv2d
from repro.nn.workloads import ConvLayerSpec
from repro.utils.fixedpoint import requantize


def _taps(layer, y, x, out_hw):
    """``(fr, fs, oy, ox)`` of every filter tap through which ifmap pixel
    ``(y, x)`` reaches an ofmap pixel."""
    oh, ow = out_hw
    _, _, r, s = layer.weight_q.shape
    for fr in range(r):
        oy, off_y = divmod(y + layer.padding - fr, layer.stride)
        if off_y or not 0 <= oy < oh:
            continue
        for fs in range(s):
            ox, off_x = divmod(x + layer.padding - fs, layer.stride)
            if off_x or not 0 <= ox < ow:
                continue
            yield fr, fs, oy, ox


@dataclass
class _LayerState:
    """Streaming state of one conv layer in the chain."""

    layer: QConv2d
    in_shape: tuple            # (C, H, W)
    acc: np.ndarray            # int64 accumulators (M, OH, OW)
    remaining: np.ndarray      # contributions outstanding per ofmap pixel
    output: np.ndarray         # requantized int8 ofmap (M, OH, OW)
    produced: np.ndarray       # ofmap pixel finalized? (OH, OW) bool
    finalized_by: np.ndarray   # ifmap raster index that finalized it (OH, OW)
    streamed: List[int] = field(default_factory=list)  # absorbed with >= 1 tap
    next_consume: int = 0      # raster cursor into this layer's ifmap
    pending: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def out_hw(self) -> tuple:
        return self.acc.shape[1], self.acc.shape[2]


class StreamedSegmentExecutor:
    """Executes a linear chain of quantized conv layers in streamed order."""

    def __init__(self, layers: Sequence[QConv2d], input_shape: tuple) -> None:
        if not layers:
            raise SimulationError("empty chain")
        self.states: List[_LayerState] = []
        shape = tuple(input_shape)
        for layer in layers:
            m, c, r, s = layer.weight_q.shape
            if c != shape[0]:
                raise ConfigurationError(
                    f"chain shape mismatch: layer expects {c} channels, "
                    f"got {shape[0]}"
                )
            oh, ow = conv2d_output_hw(shape[1], shape[2], r, s, layer.stride, layer.padding)
            remaining = np.zeros((oh, ow), dtype=np.int64)
            for y in range(shape[1]):
                for x in range(shape[2]):
                    for _, _, oy, ox in _taps(layer, y, x, (oh, ow)):
                        remaining[oy, ox] += 1
            self.states.append(
                _LayerState(
                    layer=layer,
                    in_shape=shape,
                    acc=np.tile(layer.bias_q[:, None, None], (1, oh, ow)),
                    remaining=remaining,
                    output=np.zeros((m, oh, ow), dtype=np.int64),
                    produced=np.zeros((oh, ow), dtype=bool),
                    finalized_by=np.full((oh, ow), -1, dtype=np.int64),
                )
            )
            shape = (m, oh, ow)

    def _absorb(self, index: int, pixel: int, vector: np.ndarray) -> None:
        """Feed one ifmap vector (all channels of one pixel) to layer i."""
        state = self.states[index]
        layer = state.layer
        y, x = divmod(pixel, state.in_shape[2])
        taps = list(_taps(layer, y, x, state.out_hw))
        if taps:
            state.streamed.append(pixel)
        for fr, fs, oy, ox in taps:
            state.acc[:, oy, ox] += layer.weight_q[:, :, fr, fs] @ vector
            state.remaining[oy, ox] -= 1
            if state.remaining[oy, ox] == 0:
                state.finalized_by[oy, ox] = pixel
                self._finalize(index, oy, ox)

    def _finalize(self, index: int, oy: int, ox: int) -> None:
        """An ofmap pixel completed: requantize and forward downstream."""
        state = self.states[index]
        value = requantize(
            state.acc[:, oy, ox], state.layer.requant_ratio, state.layer.n_bits
        )
        state.output[:, oy, ox] = value
        state.produced[oy, ox] = True
        if index + 1 < len(self.states):
            consumer = self.states[index + 1]
            consumer.pending[oy * state.out_hw[1] + ox] = value
            self._drain(index + 1)

    def _drain(self, index: int) -> None:
        """Consume available pixels in strict raster order (the DC's feed)."""
        state = self.states[index]
        while state.next_consume in state.pending:
            vector = state.pending.pop(state.next_consume)
            self._absorb(index, state.next_consume, vector)
            state.next_consume += 1

    def run(self, q_in: np.ndarray) -> List[np.ndarray]:
        """Stream the input through the whole chain; returns each ofmap."""
        q_in = np.asarray(q_in, dtype=np.int64)
        if q_in.shape != self.states[0].in_shape:
            raise ConfigurationError(
                f"input shape {q_in.shape} != {self.states[0].in_shape}"
            )
        _, h, w = self.states[0].in_shape
        for pixel in range(h * w):
            y, x = divmod(pixel, w)
            self._absorb(0, pixel, q_in[:, y, x])
        for i, state in enumerate(self.states):
            if not state.produced.all():
                raise SimulationError(
                    f"layer {i}: streamed schedule left "
                    f"{(~state.produced).sum()} ofmap pixels unfinished"
                )
        return [state.output for state in self.states]


def make_qconv(c, m, r=3, stride=1, padding=1, seed=0):
    rng = np.random.default_rng(seed)
    return QConv2d(
        weight_q=rng.integers(-127, 128, size=(m, c, r, r)),
        bias_q=rng.integers(-50, 50, size=m),
        stride=stride,
        padding=padding,
        in_scale=0.05,
        w_scale=0.01,
        out_scale=0.04,
        n_bits=8,
    )


def reference_chain(layers, q_in):
    outs = []
    x = q_in
    for layer in layers:
        x = layer.forward(x)
        outs.append(x)
    return outs


class TestStreamedEquality:
    def test_two_layer_chain(self):
        layers = [make_qconv(8, 12, seed=1), make_qconv(12, 8, seed=2)]
        q_in = np.random.default_rng(3).integers(-128, 128, size=(8, 6, 6))
        streamed = StreamedSegmentExecutor(layers, (8, 6, 6)).run(q_in)
        reference = reference_chain(layers, q_in)
        for got, want in zip(streamed, reference):
            assert np.array_equal(got, want)

    def test_three_layer_chain_with_stride(self):
        layers = [
            make_qconv(8, 16, seed=4),
            make_qconv(16, 16, stride=2, seed=5),
            make_qconv(16, 8, seed=6),
        ]
        q_in = np.random.default_rng(7).integers(-128, 128, size=(8, 8, 8))
        streamed = StreamedSegmentExecutor(layers, (8, 8, 8)).run(q_in)
        reference = reference_chain(layers, q_in)
        for got, want in zip(streamed, reference):
            assert np.array_equal(got, want)

    def test_unpadded_chain(self):
        layers = [make_qconv(4, 6, padding=0, seed=8)]
        q_in = np.random.default_rng(9).integers(-128, 128, size=(4, 5, 5))
        streamed = StreamedSegmentExecutor(layers, (4, 5, 5)).run(q_in)
        assert np.array_equal(streamed[0], layers[0].forward(q_in))

    def test_1x1_downsample(self):
        layers = [make_qconv(8, 16, r=1, stride=2, padding=0, seed=10)]
        q_in = np.random.default_rng(11).integers(-128, 128, size=(8, 6, 6))
        streamed = StreamedSegmentExecutor(layers, (8, 6, 6)).run(q_in)
        assert np.array_equal(streamed[0], layers[0].forward(q_in))


class TestCausality:
    def test_every_pixel_finalized_exactly_once(self):
        """The schedule never leaves or double-finalizes a pixel."""
        layers = [make_qconv(4, 4, seed=12), make_qconv(4, 4, seed=13)]
        executor = StreamedSegmentExecutor(layers, (4, 5, 5))
        q_in = np.random.default_rng(14).integers(-128, 128, size=(4, 5, 5))
        executor.run(q_in)
        for state in executor.states:
            assert state.produced.all()
            assert (state.remaining == 0).all()
            assert not state.pending  # everything was consumed in order


class TestValidation:
    def test_shape_mismatch_rejected(self):
        layers = [make_qconv(8, 4)]
        with pytest.raises(ConfigurationError):
            StreamedSegmentExecutor(layers, (4, 5, 5))

    def test_empty_chain_rejected(self):
        with pytest.raises(SimulationError):
            StreamedSegmentExecutor([], (4, 5, 5))

    def test_input_shape_checked(self):
        executor = StreamedSegmentExecutor([make_qconv(4, 4)], (4, 5, 5))
        with pytest.raises(ConfigurationError):
            executor.run(np.zeros((4, 6, 6)))


@st.composite
def conv_chains(draw, padding_past_kernel=0):
    """Two chained conv layers over an ``h x w`` ifmap (5-8 each), each
    with an ``r x r`` kernel (r in 1, 2, 3, 5), stride 1-3 and padding < r
    (up to ``r - 1 + padding_past_kernel``), with the mapped-layer
    geometry of each.  Strides past the kernel draw disjoint subgrids of
    one or more taps per window."""
    shape = (2, draw(st.integers(5, 8)), draw(st.integers(5, 8)))
    layers, specs = [], []
    h, w = shape[1:]
    for i in range(2):
        r = draw(st.sampled_from([1, 2, 3, 5]))
        stride = draw(st.integers(1, 3))
        padding = draw(st.integers(0, r - 1 + padding_past_kernel))
        spec = ConvLayerSpec(
            i, f"l{i}", h=h, w=w, c=2, m=2, r=r, s=r, stride=stride, padding=padding
        )
        h, w = spec.ofmap_hw
        assume(min(h, w) >= 1)
        # Past the kernel, padding can leave an axis with no window that
        # reads a real pixel: such a layer streams nothing.
        assume(all(spec.streamed_hw))
        layers.append(make_qconv(2, 2, r=r, stride=stride, padding=padding, seed=i))
        specs.append(spec)
    return layers, shape, specs


class TestStreamedPixelRule:
    """The executor is the oracle of the rule both queueing tiers time:
    a layer streams the ifmap pixels it absorbs with at least one
    contribution, and a consumer vector waits for the producer vector
    whose absorption finalized it."""

    @settings(max_examples=80, deadline=None)
    @given(conv_chains(), st.integers(1, 3))
    def test_matches_the_executor(self, chain, requests):
        layers, shape, specs = chain
        executor = StreamedSegmentExecutor(layers, shape)
        q_in = np.random.default_rng(0).integers(-128, 128, size=shape)
        for got, want in zip(executor.run(q_in), reference_chain(layers, q_in)):
            assert np.array_equal(got, want)

        model = PerformanceModel()
        producer, consumer = executor.states
        for spec, state in zip(specs, executor.states):
            assert model.required_iterations(spec) == len(state.streamed)

        timings = [model.layer_timing(spec, 1) for spec in specs]
        producer_of, sources = dependence_map(timings, requests)
        assert producer_of == [None, 0]
        rank = {pixel: k for k, pixel in enumerate(producer.streamed)}
        finalized_by = producer.finalized_by.reshape(-1)
        per_request = [rank[finalized_by[pixel]] for pixel in consumer.streamed]
        assert sources[1].tolist() == [
            r * len(rank) + src for r in range(requests) for src in per_request
        ]

    @settings(max_examples=80, deadline=None)
    @given(conv_chains(padding_past_kernel=2))
    def test_padding_only_windows_are_rejected(self, chain):
        # Padding at or past the kernel leaves producer ofmap pixels that
        # no ifmap pixel reaches.  The map must raise exactly when the
        # consumer streams one of them, and otherwise rank the pixel that
        # finalizes each streamed one.
        layers, shape, specs = chain
        executor = StreamedSegmentExecutor(layers, shape)
        producer, consumer = executor.states
        unreached = producer.remaining == 0
        oh, ow = producer.out_hw
        needed = [
            (y, x) for y in range(oh) for x in range(ow)
            if any(True for _ in _taps(consumer.layer, y, x, consumer.out_hw))
        ]
        model = PerformanceModel()
        timings = [model.layer_timing(spec, 1) for spec in specs]
        if any(unreached[y, x] for y, x in needed):
            with pytest.raises(SimulationError, match="only padding"):
                dependence_map(timings)
            return
        _, sources = dependence_map(timings)
        q_in = np.random.default_rng(0).integers(-128, 128, size=shape)
        # run() streams the producer's whole ifmap, then reports the
        # ofmap pixels padding-only windows (of either layer) left
        # unfinished.
        with contextlib.suppress(SimulationError):
            executor.run(q_in)
        rank = {pixel: k for k, pixel in enumerate(producer.streamed)}
        assert sources[1].tolist() == [
            rank[producer.finalized_by[y, x]] for y, x in needed
        ]
