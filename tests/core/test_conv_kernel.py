"""The Algorithm-1 kernel generator: bit-true correctness on small layers."""

import numpy as np
import pytest

from repro.core.conv_kernel import RequantParams
from repro.core.node import MAICCNode
from repro.nn.workloads import ConvLayerSpec


def small_spec(**kw):
    defaults = dict(h=4, w=4, c=32, m=2, r=3, s=3, stride=1, padding=0)
    defaults.update(kw)
    return ConvLayerSpec(0, "small", **defaults)


def run_node(spec, seed=0, **node_kw):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-500, 500, size=spec.m)
    ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
    node = MAICCNode(spec, weights, bias, **node_kw)
    return node, node.run(ifmap), node.reference(ifmap)


class TestBitTrueness:
    def test_valid_convolution(self):
        node, result, reference = run_node(small_spec())
        assert np.array_equal(result.psums, reference)

    def test_padded_convolution(self):
        node, result, reference = run_node(small_spec(padding=1))
        assert np.array_equal(result.psums, reference)

    def test_strided_convolution(self):
        node, result, reference = run_node(small_spec(h=6, w=6, stride=2, padding=1))
        assert np.array_equal(result.psums, reference)

    def test_1x1_convolution(self):
        node, result, reference = run_node(small_spec(r=1, s=1, padding=0))
        assert np.array_equal(result.psums, reference)

    def test_multiple_seeds(self):
        for seed in range(3):
            _, result, reference = run_node(small_spec(), seed=seed)
            assert np.array_equal(result.psums, reference)

    def test_static_schedule_preserves_results(self):
        spec = small_spec(padding=1)
        rng = np.random.default_rng(3)
        weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
        bias = rng.integers(-500, 500, size=spec.m)
        ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
        node = MAICCNode(spec, weights, bias)
        plain = node.run(ifmap)
        static = node.run(ifmap, static=True)
        assert np.array_equal(plain.psums, static.psums)
        assert static.stats.cycles <= plain.stats.cycles


class TestAuxFunctions:
    def test_relu_output_nonnegative(self):
        _, result, _ = run_node(small_spec())
        assert result.outputs.min() >= 0

    def test_requantization_applied(self):
        spec = small_spec()
        rng = np.random.default_rng(1)
        weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
        ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
        requant = RequantParams(mult=1, shift=8)
        node = MAICCNode(spec, weights, requant=requant)
        result = node.run(ifmap)
        ref = node.reference(ifmap)
        # Kernel: out = relu((acc * mult + 128) >> 8) truncated to a byte.
        expected = np.maximum((ref * requant.mult + 128) >> 8, 0) & 0xFF
        assert np.array_equal(result.outputs, expected)


class TestInstructionStream:
    def test_categories_tagged(self):
        node, _, _ = run_node(small_spec())
        program = node.build_program()
        categories = {i.category for i in program}
        assert {"init", "recv_ifmap", "compute", "accumulate", "aux"} <= categories

    def test_macs_round_robin_across_slices(self):
        node, _, _ = run_node(small_spec(m=2))
        program = node.build_program()
        macs = [i for i in program if i.opcode == "mac.c"]
        slices = [i.cm["slice"] for i in macs[:4]]
        # Consecutive MACs target different slices whenever possible.
        assert len(set(slices)) > 1

    def test_instruction_count_scales_with_pixels(self):
        small = run_node(small_spec(h=4, w=4))[0].build_program()
        large = run_node(small_spec(h=6, w=6))[0].build_program()
        assert len(large) > len(small)

    def test_forwarding_emitted_when_enabled(self):
        node, result, _ = run_node(small_spec(), include_forward=True)
        program = node.build_program()
        assert any(i.opcode == "storerow.rc" for i in program)
        assert result.forwarded_rows == 16 * 8  # pixels * rows


class TestStaticAnalysis:
    """Generated kernels must lint clean and schedule predictably."""

    def test_generated_kernel_lints_clean(self):
        from repro.analysis import verify_program

        node, _, _ = run_node(small_spec())
        report = verify_program(node.build_program())
        assert report.clean, report.render()

    def test_schedule_prediction_matches_simulation(self):
        from repro.analysis import schedule_kernel

        spec = small_spec()
        rng = np.random.default_rng(0)
        weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
        bias = rng.integers(-500, 500, size=spec.m)
        ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
        node = MAICCNode(spec, weights, bias)

        report = schedule_kernel(node.build_program())
        assert report.baseline.cycles == node.run(ifmap).stats.cycles
        assert report.scheduled.cycles == node.run(ifmap, static=True).stats.cycles
        assert report.predicted_saving > 0
