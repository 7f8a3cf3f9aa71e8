"""Functional node-group execution == quantized reference, exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.functional import (
    FunctionalNodeGroup,
    bit_true_min_nodes,
    simulate_quantized_graph,
)
from repro.core.node import reference_accumulators
from repro.errors import CMemError, ConfigurationError
from repro.mapping.capacity import CapacityModel
from repro.nn.models import build_residual_cnn
from repro.nn.quantize import quantize_graph
from repro.nn.workloads import ConvLayerSpec
from repro.utils.fixedpoint import EXACT_BLOCK, fixed_range
from tests.models import build_small_cnn


def group_setup(spec, num_nodes, seed=0, group_cls=FunctionalNodeGroup, **kw):
    rng = np.random.default_rng(seed)
    lim = 1 << (spec.n_bits - 1)
    weights = rng.integers(-lim, lim, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-200, 200, size=spec.m)
    q_in = rng.integers(-lim, lim, size=(spec.c, spec.h, spec.w))
    group = group_cls(spec, weights, bias, num_nodes, **kw)
    return group, q_in, reference_accumulators(spec, weights, bias, q_in)


class PerPixelGroup(FunctionalNodeGroup):
    """Fast mode as a per-pixel loop: the reference the per-tap contraction
    of ``FunctionalNodeGroup._run_fast`` must match exactly.

    Streams each ifmap vector to every node holding filters and issues one
    small matvec per held-filter block, reached tap and 256-lane sub-vector,
    tallying the op counts one MAC.C at a time.
    """

    def _run_fast(self, q_in):
        spec = self.spec
        oh, ow = spec.ofmap_hw
        cols = self.capacity.cols
        sub_vectors = max(1, math.ceil(spec.c / cols))
        acc = np.zeros((spec.m, oh, ow), dtype=np.int64)
        acc += self.bias[:, None, None]
        padded_c = sub_vectors * cols
        padded = np.zeros((padded_c, spec.h, spec.w), dtype=np.int64)
        padded[: spec.c] = q_in
        for y in range(spec.h):
            for x in range(spec.w):
                self.stats.vectors_streamed += 1
                vector = padded[:, y, x]
                for k, (start, count) in enumerate(self.ranges):
                    if count == 0:
                        continue
                    self.stats.row_transfers += spec.n_bits * sub_vectors
                    for fr in range(spec.r):
                        oy_num = y + spec.padding - fr
                        if oy_num % spec.stride:
                            continue
                        oy = oy_num // spec.stride
                        if not 0 <= oy < oh:
                            continue
                        for fs in range(spec.s):
                            ox_num = x + spec.padding - fs
                            if ox_num % spec.stride:
                                continue
                            ox = ox_num // spec.stride
                            if not 0 <= ox < ow:
                                continue
                            w_slab = np.zeros((count, padded_c), dtype=np.int64)
                            w_slab[:, : spec.c] = self.weights[
                                start : start + count, :, fr, fs
                            ]
                            for sub in range(sub_vectors):
                                lo, hi = sub * cols, (sub + 1) * cols
                                psums = w_slab[:, lo:hi] @ vector[lo:hi]
                                self.stats.macs += count
                                self._node_macs[k] += count
                                acc[start : start + count, oy, ox] += psums
        return acc


@st.composite
def conv_case(draw):
    """A layer shape, a node count (possibly more nodes than filters), a seed."""
    r = draw(st.sampled_from([1, 3, 5, 7]))
    s = draw(st.sampled_from([1, 3, 5, 7]))
    padding = draw(st.integers(0, max(r, s) - 1))
    m = draw(st.integers(1, 6))
    spec = ConvLayerSpec(
        0, "t",
        h=draw(st.integers(max(1, r - 2 * padding), 7)),
        w=draw(st.integers(max(1, s - 2 * padding), 7)),
        c=draw(st.sampled_from([1, 64, 255, 256, 257, 600])),
        m=m, r=r, s=s, stride=draw(st.integers(1, 3)), padding=padding,
    )
    return spec, draw(st.integers(1, m + 3)), draw(st.integers(0, 2**32 - 1))


class TestFastMode:
    def test_single_node(self):
        spec = ConvLayerSpec(0, "t", h=6, w=6, c=32, m=4, padding=1)
        group, q_in, ref = group_setup(spec, 1)
        assert np.array_equal(group.run(q_in), ref)

    def test_filters_split_across_nodes(self):
        spec = ConvLayerSpec(0, "t", h=6, w=6, c=64, m=10, padding=1)
        group, q_in, ref = group_setup(spec, 4)
        assert np.array_equal(group.run(q_in), ref)

    def test_wide_channels_subvectors(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=512, m=3, padding=0)
        group, q_in, ref = group_setup(spec, 2)
        assert np.array_equal(group.run(q_in), ref)

    def test_strided(self):
        spec = ConvLayerSpec(0, "t", h=8, w=8, c=32, m=4, stride=2, padding=1)
        group, q_in, ref = group_setup(spec, 2)
        assert np.array_equal(group.run(q_in), ref)

    def test_mac_count_matches_model(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=256, m=2, padding=0)
        group, q_in, _ = group_setup(spec, 1)
        group.run(q_in)
        # 2x2 ofmap * 9 taps * 2 filters MACs.
        assert group.stats.macs == 4 * 9 * 2

    def test_shape_validated(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=32, m=2, padding=0)
        group, _, _ = group_setup(spec, 1)
        with pytest.raises(ConfigurationError):
            group.run(np.zeros((32, 5, 5)))


class TestFastModeMatchesPerPixelLoop:
    @settings(max_examples=60, deadline=None)
    @given(conv_case())
    def test_accumulators_stats_and_node_tallies(self, case):
        spec, nodes, seed = case
        fast, q_in, _ = group_setup(spec, nodes, seed)
        loop, _, _ = group_setup(spec, nodes, seed, group_cls=PerPixelGroup)
        assert np.array_equal(fast.run(q_in), loop.run(q_in))
        assert fast.stats == loop.stats
        assert fast._node_macs == loop._node_macs

    def test_filters_span_several_cache_blocks(self):
        # The fast path contracts EXACT_BLOCK // (c*r*s) filters at a time;
        # 60 filters of 512x3x3 make three blocks, the last one partial.
        spec = ConvLayerSpec(0, "t", h=3, w=4, c=512, m=60, padding=1)
        assert spec.m > 2 * (EXACT_BLOCK // (spec.c * spec.r * spec.s))
        fast, q_in, ref = group_setup(spec, 7)
        loop, _, _ = group_setup(spec, 7, group_cls=PerPixelGroup)
        assert np.array_equal(fast.run(q_in), ref)
        assert np.array_equal(loop.run(q_in), ref)
        assert fast.stats == loop.stats

    def test_published_counters_and_spans(self):
        spec = ConvLayerSpec(0, "t", h=6, w=5, c=300, m=5, r=3, s=1,
                             stride=2, padding=1)
        published = []
        for cls in (FunctionalNodeGroup, PerPixelGroup):
            sink = telemetry.Telemetry()
            group, q_in, ref = group_setup(spec, 7, group_cls=cls, telemetry=sink)
            assert np.array_equal(group.run(q_in), ref)
            counters = sink.registry.as_dict()["counters"]
            spans = [e for e in sink.trace.events if e.ph == "X"]
            published.append((counters, spans))
        (counters, spans), loop = published
        assert {"group/t/vectors_streamed", "group/t/macs"} <= set(counters)
        assert {e.track for e in spans} == {"layer/t"} | {f"core/{k}" for k in range(5)}
        assert (counters, spans) == loop


class TestBitTrueMode:
    def test_matches_fast_mode(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=32, m=2, padding=1)
        fast, q_in, ref = group_setup(spec, 1)
        nodes = bit_true_min_nodes(spec, CapacityModel())
        true, _, _ = group_setup(spec, nodes, bit_true=True)
        assert np.array_equal(true.run(q_in), ref)

    def test_sixteen_bit_operands(self):
        spec = ConvLayerSpec(0, "t", h=3, w=3, c=8, m=2, padding=1, n_bits=16)
        nodes = bit_true_min_nodes(spec, CapacityModel())
        group, q_in, ref = group_setup(spec, nodes, seed=1, bit_true=True)
        assert np.array_equal(group.run(q_in), ref)

    @pytest.mark.parametrize("n_bits", [2, 4])
    def test_rejects_sub_byte_operands(self, n_bits):
        # Vertical stores and loads move whole bytes (Fig. 5).
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=4, m=16, n_bits=n_bits)
        nodes = bit_true_min_nodes(spec, CapacityModel())
        group, q_in, _ = group_setup(spec, nodes, bit_true=True)
        with pytest.raises(CMemError, match="byte-granular"):
            group.run(q_in)

    def test_wide_channels_rejected(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=512, m=2, padding=0)
        with pytest.raises(ConfigurationError):
            group_setup(spec, 4, bit_true=True)

    def test_energy_accounted(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=32, m=2, padding=0)
        group, q_in, _ = group_setup(spec, 1, bit_true=True)
        group.run(q_in)
        assert group.stats.cmem_energy_pj > 0
        assert group.stats.row_transfers > 0


class TestOperandChecks:
    SPEC = ConvLayerSpec(0, "t", h=4, w=4, c=16, m=4, padding=1)

    def operands(self):
        spec = self.SPEC
        weights = np.ones((spec.m, spec.c, spec.r, spec.s), dtype=np.int64)
        bias = np.zeros(spec.m, dtype=np.int64)
        return weights, bias, np.ones((spec.c, spec.h, spec.w), dtype=np.int64)

    def test_float_weights_rejected(self):
        # Cast to int64 they would truncate 0.7 to zero: all-zero
        # accumulators and no error.
        weights, bias, _ = self.operands()
        with pytest.raises(ConfigurationError, match="weights must be integers"):
            FunctionalNodeGroup(self.SPEC, np.full(weights.shape, 0.7), bias, 1)

    def test_float_bias_rejected(self):
        weights, bias, _ = self.operands()
        with pytest.raises(ConfigurationError, match="bias must be integers"):
            FunctionalNodeGroup(self.SPEC, weights, bias + 0.5, 1)

    @pytest.mark.parametrize("bit_true", [False, True])
    def test_float_ifmap_rejected(self, bit_true):
        weights, bias, q_in = self.operands()
        group = FunctionalNodeGroup(self.SPEC, weights, bias, 1, bit_true=bit_true)
        with pytest.raises(ConfigurationError, match="ifmap must be integers"):
            group.run(np.full(q_in.shape, 0.9))

    @pytest.mark.parametrize(
        "shape",
        [
            (4, 16, 5, 5),  # a 5x5 kernel: only its top-left taps would run
            (6, 16, 3, 3),  # more filters than the spec's m
            (4, 8, 3, 3),
            (4, 16, 3),
        ],
    )
    def test_weights_not_shaped_m_c_r_s_rejected(self, shape):
        _, bias, _ = self.operands()
        with pytest.raises(ConfigurationError, match="weights shape"):
            FunctionalNodeGroup(self.SPEC, np.ones(shape, dtype=np.int64), bias, 1)

    def test_bias_not_shaped_m_rejected(self):
        weights, _, _ = self.operands()
        with pytest.raises(ConfigurationError, match="bias shape"):
            FunctionalNodeGroup(self.SPEC, weights, np.zeros(5, dtype=np.int64), 1)


class TestOperandDtypes:
    """Every integer operand dtype gives the int64 oracle's accumulators,
    extremes included: no arithmetic runs in a narrow operand's own dtype,
    where it would wrap."""

    @pytest.mark.parametrize("bit_true", [False, True])
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_group_and_reference_equal_the_int64_oracle(self, dtype, bit_true):
        n_bits = 8 if dtype is np.int8 else 16
        spec = ConvLayerSpec(0, "t", h=4, w=5, c=24, m=3, stride=1, padding=1,
                             n_bits=n_bits)
        lo, hi = fixed_range(n_bits)
        rng = np.random.default_rng(5)
        weights = rng.integers(lo, hi + 1, (spec.m, spec.c, spec.r, spec.s))
        bias = rng.integers(lo, hi + 1, spec.m)
        q_in = rng.integers(lo, hi + 1, (spec.c, spec.h, spec.w))
        weights[0] = lo
        q_in[:, 1:3] = lo
        expected = reference_accumulators(spec, weights, bias, q_in)
        narrow_w, narrow_x = weights.astype(dtype), q_in.astype(dtype)
        nodes = bit_true_min_nodes(spec, CapacityModel()) if bit_true else 2
        group = FunctionalNodeGroup(
            spec, narrow_w, bias.astype(dtype), nodes, bit_true=bit_true
        )
        assert group.weights.dtype == dtype
        assert np.array_equal(group.run(narrow_x), expected)
        assert np.array_equal(
            reference_accumulators(spec, narrow_w, bias.astype(dtype), narrow_x),
            expected,
        )


class TestWholeNetworks:
    def test_small_cnn_fast_equals_reference(self):
        g = build_small_cnn()
        x = np.random.default_rng(11).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    def test_residual_cnn_fast_equals_reference(self):
        g = build_residual_cnn()
        x = np.random.default_rng(12).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    def test_explicit_node_counts_respected(self):
        g = build_small_cnn()
        x = np.random.default_rng(13).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x, nodes_per_layer={"conv1": 3})
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    @pytest.mark.slow
    def test_small_cnn_bit_true_equals_reference(self):
        g = build_small_cnn(input_shape=(8, 6, 6))
        x = np.random.default_rng(14).normal(size=(8, 6, 6))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x, bit_true=True)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name


class TestOtherPrecisions:
    def test_int4_network_functional_equality(self):
        """The whole stack also holds at 4-bit quantization."""
        g = build_small_cnn()
        x = np.random.default_rng(40).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x], n_bits=4)
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    def test_int16_network_functional_equality(self):
        g = build_small_cnn()
        x = np.random.default_rng(41).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x], n_bits=16)
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name
