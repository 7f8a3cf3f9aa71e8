"""Fixed-point helpers shared by the quantizer and the simulators."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import QuantizationError

#: float64 holds every integer of magnitude below 2**53 exactly.
_EXACT_LIMIT = 1 << 53
#: Elements of ``a`` that :func:`exact_matmul` converts to float64 at a
#: time: a block stays in cache while it is bound-checked and multiplied.
EXACT_BLOCK = 1 << 17


@lru_cache(maxsize=None)
def _dtype_magnitude(dtype: np.dtype) -> int:
    """The largest magnitude an integer ``dtype`` holds."""
    info = np.iinfo(dtype)
    return max(-int(info.min), int(info.max))


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer ``a @ b`` as int64, computed on float64 BLAS.

    ``a`` is ``(m, k)`` and ``b`` is ``(k, n)``, of any integer dtype and
    any strides.  When ``max|a| * max|b| * k < 2**53`` every product and
    every partial sum is an integer float64 represents exactly, so the
    result does not depend on the BLAS summation order.  When the
    operands' dtype ranges alone keep the bound (int8 or int16 operands
    at any ``k`` below 2**23) no value is scanned.  Otherwise ``a`` is
    converted in row blocks of at most :data:`EXACT_BLOCK` elements, each
    checked against the bound before it is multiplied; past the bound
    this raises :class:`QuantizationError` rather than round.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise QuantizationError(
            f"exact_matmul takes integer operands, got {a.dtype} and {b.dtype}"
        )
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise QuantizationError(
            f"exact_matmul cannot multiply {a.shape} by {b.shape}"
        )
    m, k = a.shape
    out = np.zeros((m, b.shape[1]), dtype=np.int64)
    if out.size == 0 or k == 0:
        return out
    fb = b.astype(np.float64)
    scan = _dtype_magnitude(a.dtype) * _dtype_magnitude(b.dtype) * k >= _EXACT_LIMIT
    b_max = int(max(-fb.min(), fb.max())) if scan else 0
    rows = max(1, EXACT_BLOCK // k)
    for lo in range(0, m, rows):
        fa = a[lo : lo + rows].astype(np.float64)
        bound = int(max(-fa.min(), fa.max())) * b_max * k if scan else 0
        if bound >= _EXACT_LIMIT:
            raise QuantizationError(
                f"exact_matmul: max|a| * max|b| * k = {bound} reaches 2**53; "
                "float64 sums would round"
            )
        out[lo : lo + rows] = fa @ fb
    return out


def clamp(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Clamp an integer array into ``[lo, hi]``."""
    return np.clip(values, lo, hi)


def saturate(values: np.ndarray, n_bits: int, *, signed: bool = True) -> np.ndarray:
    """Saturate values to the representable ``n_bits`` fixed-point range."""
    if signed:
        lo, hi = -(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1
    else:
        lo, hi = 0, (1 << n_bits) - 1
    return clamp(np.asarray(values), lo, hi)


def choose_scale(values: np.ndarray, n_bits: int, *, signed: bool = True) -> float:
    """Pick a symmetric linear-quantization scale covering ``values``.

    The scale maps the largest magnitude onto the extreme representable
    level, i.e. ``real = scale * q``.
    """
    values = np.asarray(values, dtype=np.float64)
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    if max_abs == 0.0:
        return 1.0
    levels = (1 << (n_bits - 1)) - 1 if signed else (1 << n_bits) - 1
    scale = max_abs / levels
    # Subnormal max_abs can underflow the division to exactly 0.0, which
    # quantize_linear rejects; the unscaled magnitude is still a valid
    # (conservative) scale there.
    return scale if scale > 0.0 else max_abs


def quantize_linear(
    values: np.ndarray, scale: float, n_bits: int, *, signed: bool = True
) -> np.ndarray:
    """Linear (affine, zero-point 0) quantization: ``q = round(x / scale)``."""
    if scale <= 0:
        raise QuantizationError(f"scale must be positive, got {scale}")
    q = np.rint(np.asarray(values, dtype=np.float64) / scale).astype(np.int64)
    return saturate(q, n_bits, signed=signed)


def requantize(
    acc: np.ndarray, ratio: float, n_bits: int, *, signed: bool = True
) -> np.ndarray:
    """Round a wide accumulator into the next layer's ``n_bits`` grid.

    This is the integer-only requantization step between fused layers
    (Jacob et al., CVPR 2018): an int32 accumulator at scale ``s_in`` is
    rounded onto the ``s_out`` grid, ``ratio`` being ``s_in / s_out``.
    """
    if ratio <= 0:
        raise QuantizationError(f"requantization ratio must be positive, got {ratio}")
    q = np.rint(np.asarray(acc, dtype=np.float64) * ratio).astype(np.int64)
    return saturate(q, n_bits, signed=signed)


def fixed_range(n_bits: int, *, signed: bool = True) -> Tuple[int, int]:
    """Return the ``(lo, hi)`` representable range for ``n_bits``."""
    if n_bits < 1:
        raise QuantizationError(f"n_bits must be >= 1, got {n_bits}")
    if signed:
        return -(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1
    return 0, (1 << n_bits) - 1


def fixed_dtype(n_bits: int) -> np.dtype:
    """The narrowest signed integer dtype that holds the signed
    :func:`fixed_range` of ``n_bits``: int8 up to 8 bits, int16 up to 16."""
    lo, _ = fixed_range(n_bits)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= lo:
            return np.dtype(dtype)
    raise QuantizationError(f"no integer dtype holds {n_bits}-bit values")
