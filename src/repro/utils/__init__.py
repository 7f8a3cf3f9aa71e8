"""Shared low-level utilities: bit manipulation, fixed point, events."""

from repro.utils.bitops import (
    bits_to_int,
    int_to_bits,
    pack_transposed,
    popcount,
    sign_extend,
    to_twos_complement,
    from_twos_complement,
    unpack_transposed,
)
from repro.utils.fixedpoint import (
    clamp,
    quantize_linear,
    dequantize_linear,
    saturate,
)
from repro.utils.events import EventQueue

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "pack_transposed",
    "popcount",
    "sign_extend",
    "to_twos_complement",
    "from_twos_complement",
    "unpack_transposed",
    "clamp",
    "quantize_linear",
    "dequantize_linear",
    "saturate",
    "EventQueue",
]
