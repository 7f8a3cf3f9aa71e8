"""Tests for quantization arithmetic helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.utils.fixedpoint import (
    EXACT_BLOCK,
    choose_scale,
    exact_matmul,
    fixed_range,
    quantize_linear,
    requantize,
    saturate,
)


class TestSaturate:
    def test_signed_bounds(self):
        out = saturate(np.array([-200, 0, 200]), 8)
        assert out.tolist() == [-128, 0, 127]

    def test_unsigned_bounds(self):
        out = saturate(np.array([-5, 100, 300]), 8, signed=False)
        assert out.tolist() == [0, 100, 255]

    @given(st.integers(2, 16))
    def test_range_is_representable(self, n_bits):
        lo, hi = fixed_range(n_bits)
        assert saturate(np.array([lo - 1]), n_bits)[0] == lo
        assert saturate(np.array([hi + 1]), n_bits)[0] == hi

    def test_fixed_range_invalid(self):
        with pytest.raises(QuantizationError):
            fixed_range(0)


class TestQuantizeLinear:
    def test_exact_grid_values(self):
        q = quantize_linear(np.array([0.5, -0.5]), 0.25, 8)
        assert q.tolist() == [2, -2]

    def test_scale_must_be_positive(self):
        with pytest.raises(QuantizationError):
            quantize_linear(np.array([1.0]), 0.0, 8)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=64))
    def test_roundtrip_error_bounded_by_half_step(self, values):
        arr = np.array(values)
        scale = choose_scale(arr, 8)
        q = quantize_linear(arr, scale, 8)
        recon = q * scale
        assert np.max(np.abs(recon - arr)) <= scale / 2 + 1e-12

    def test_choose_scale_zero_input(self):
        assert choose_scale(np.zeros(4), 8) == 1.0

    def test_choose_scale_covers_max(self):
        arr = np.array([-3.0, 2.0])
        scale = choose_scale(arr, 8)
        assert quantize_linear(arr, scale, 8)[0] == -127


class TestRequantize:
    def test_identity_when_scales_equal(self):
        acc = np.array([5, -7])
        assert np.array_equal(requantize(acc, 1.0, 8), acc)

    def test_rescaling(self):
        assert requantize(np.array([100]), 0.01 / 0.1, 8)[0] == 10

    def test_saturates(self):
        assert requantize(np.array([10_000]), 1.0, 8)[0] == 127

    def test_invalid_scales(self):
        with pytest.raises(QuantizationError):
            requantize(np.array([1]), 0.0, 8)


@st.composite
def matmul_operands(draw):
    """Integer operands of every dtype that holds the drawn precision, as
    contiguous arrays, strided filter-tap slices or transposed views."""
    n_bits = draw(st.integers(1, 16))
    dtypes = [np.int16, np.int32, np.int64] + ([np.int8] if n_bits <= 8 else [])
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    # The last k spans several row blocks of ``a``.
    k = draw(st.sampled_from([0, 1, 2, 7, 256, EXACT_BLOCK // 3 + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = fixed_range(n_bits)

    def operand(rows, cols):
        dtype = draw(st.sampled_from(dtypes))
        layout = draw(st.sampled_from(["contiguous", "tap", "transposed"]))
        if layout == "tap":
            full = rng.integers(lo, hi + 1, (rows, cols, 3, 2), dtype=dtype)
            return full[:, :, draw(st.integers(0, 2)), draw(st.integers(0, 1))]
        if layout == "transposed":
            return rng.integers(lo, hi + 1, (cols, rows), dtype=dtype).T
        return rng.integers(lo, hi + 1, (rows, cols), dtype=dtype)

    return operand(m, k), operand(k, n)


class TestExactMatmul:
    @settings(max_examples=60, deadline=None)
    @given(matmul_operands())
    def test_equals_int64_matmul(self, operands):
        a, b = operands
        out = exact_matmul(a, b)
        assert out.dtype == np.int64
        assert np.array_equal(out, a.astype(np.int64) @ b.astype(np.int64))

    def test_bound_reached_raises(self):
        # 2**26 * 2**26 * 2 is exactly 2**53: no longer guaranteed exact.
        a = np.full((1, 2), 1 << 26)
        with pytest.raises(QuantizationError, match="2\\*\\*53"):
            exact_matmul(a, np.full((2, 1), 1 << 26))
        with pytest.raises(QuantizationError):
            exact_matmul(-a, np.full((2, 1), 1 << 26))

    def test_bound_checked_in_every_row_block(self):
        k = EXACT_BLOCK
        a = np.ones((3, k), dtype=np.int64)
        a[2, 0] = 1 << 40
        with pytest.raises(QuantizationError):
            exact_matmul(a, np.full((k, 1), 1 << 12))

    def test_largest_operands_below_bound_are_exact(self):
        a = np.full((3, 2), (1 << 26) - 1)
        a[1] *= -1
        b = np.full((2, 4), 1 << 26)
        assert np.array_equal(exact_matmul(a, b), a @ b)
        odd = (1 << 53) - 1
        assert exact_matmul(np.array([[odd]]), np.array([[1]]))[0, 0] == odd

    def test_rejects_non_integer_or_mismatched_operands(self):
        with pytest.raises(QuantizationError):
            exact_matmul(np.ones((2, 3)), np.ones((3, 2), dtype=np.int64))
        with pytest.raises(QuantizationError):
            exact_matmul(np.ones((0, 3), dtype=np.int64), np.ones((2, 2), dtype=np.int64))
