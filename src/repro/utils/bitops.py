"""Bit-level helpers used by the SRAM and CMem models.

The computing memory stores vectors *transposed*: bit position ``i`` of every
element of a vector lives in one physical SRAM row, and one element occupies
one bit-line (column).  These helpers encode ordinary integer arrays into the
transposed bit matrices the array model operates on.

All bit matrices are ``numpy`` arrays of dtype ``uint8`` whose entries are 0
or 1, shaped ``(n_bits, n_elements)`` — row ``i`` holds bit ``i`` (LSB first)
of every element.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import SRAMError

IntArray = np.ndarray


def popcount(bits: np.ndarray) -> int:
    """Number of set bits in a 0/1 bit vector (the adder-tree operation)."""
    return int(np.sum(bits, dtype=np.int64))


def to_twos_complement(values: IntArray, n_bits: int) -> IntArray:
    """Encode signed integers as unsigned ``n_bits``-bit two's complement.

    Raises :class:`SRAMError` if any value is outside the representable
    signed range ``[-2^(n-1), 2^(n-1) - 1]``.
    """
    values = np.asarray(values, dtype=np.int64)
    lo, hi = -(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1
    if values.size and (values.min() < lo or values.max() > hi):
        raise SRAMError(
            f"value out of signed {n_bits}-bit range [{lo}, {hi}]: "
            f"min={values.min()}, max={values.max()}"
        )
    return np.where(values < 0, values + (1 << n_bits), values).astype(np.uint64)


def sign_extend(value: int, n_bits: int) -> int:
    """Sign-extend an ``n_bits``-bit pattern held in a Python int."""
    value &= (1 << n_bits) - 1
    if value & (1 << (n_bits - 1)):
        value -= 1 << n_bits
    return value


def int_to_bits(values: IntArray, n_bits: int, *, signed: bool = False) -> np.ndarray:
    """Convert integers to a transposed bit matrix ``(n_bits, len(values))``.

    Row ``i`` of the result is bit ``i`` (least significant first) of every
    element.  Signed inputs are stored in two's complement.
    """
    values = np.asarray(values, dtype=np.int64)
    if signed:
        encoded = to_twos_complement(values, n_bits)
    else:
        if values.size and (values.min() < 0 or values.max() >= (1 << n_bits)):
            raise SRAMError(
                f"value out of unsigned {n_bits}-bit range: "
                f"min={values.min()}, max={values.max()}"
            )
        encoded = values.astype(np.uint64)
    shifts = np.arange(n_bits, dtype=np.uint64)[:, None]
    return ((encoded[None, :] >> shifts) & 1).astype(np.uint8)


def pack_transposed(
    values: IntArray, n_bits: int, width: int, *, signed: bool = False
) -> np.ndarray:
    """Pack a vector into a transposed bit matrix padded to ``width`` columns.

    This mirrors how a vector shorter than the 256 bit-lines of a CMem slice
    occupies the leftmost columns, with unused bit-lines holding zeros.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise SRAMError(f"expected a 1-D vector, got shape {values.shape}")
    if len(values) > width:
        raise SRAMError(f"vector of {len(values)} elements exceeds width {width}")
    bits = np.zeros((n_bits, width), dtype=np.uint8)
    bits[:, : len(values)] = int_to_bits(values, n_bits, signed=signed)
    return bits


def bytes_to_bitplanes(byte_values: IntArray) -> np.ndarray:
    """Explode a byte vector into an ``(8, len)`` transposed bit matrix.

    Row ``i`` holds bit ``i`` (LSB first) of every byte — the layout a
    vertical byte-store stream produces in CMem slice 0.  One
    ``np.unpackbits`` call replaces the eight-Python-calls-per-byte loop.
    """
    byte_values = np.asarray(byte_values)
    if byte_values.ndim != 1:
        raise SRAMError(f"expected a 1-D byte vector, got shape {byte_values.shape}")
    if byte_values.size and (byte_values.min() < 0 or byte_values.max() > 0xFF):
        raise SRAMError("byte values must be in [0, 255]")
    return np.unpackbits(
        byte_values.astype(np.uint8).reshape(-1, 1), axis=1, bitorder="little"
    ).T


@lru_cache(maxsize=4096)
def _pack_transposed_cached(
    key: bytes, n_values: int, n_bits: int, width: int, signed: bool
) -> np.ndarray:
    values = np.frombuffer(key, dtype=np.int64, count=n_values)
    bits = pack_transposed(values, n_bits, width, signed=signed)
    bits.setflags(write=False)  # shared across callers; must stay immutable
    return bits


def pack_transposed_cached(
    values: IntArray, n_bits: int, width: int, *, signed: bool = False
) -> np.ndarray:
    """Memoized :func:`pack_transposed` for stationary data.

    Filter weights are encoded into transposed bit matrices every time a
    node layout is staged, but the weights themselves never change during a
    run — so the encodings are cached keyed on ``(values, n_bits, width,
    signed)``.  The returned matrix is read-only; copy before mutating.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise SRAMError(f"expected a 1-D vector, got shape {values.shape}")
    return _pack_transposed_cached(
        values.tobytes(), values.shape[0], n_bits, width, bool(signed)
    )
