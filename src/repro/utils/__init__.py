"""Shared low-level utilities: bit manipulation, fixed point, events."""

from repro.utils.bitops import (
    int_to_bits,
    pack_transposed,
    popcount,
    sign_extend,
    to_twos_complement,
)
from repro.utils.fixedpoint import (
    clamp,
    quantize_linear,
    saturate,
)
from repro.utils.events import EventQueue

__all__ = [
    "int_to_bits",
    "pack_transposed",
    "popcount",
    "sign_extend",
    "to_twos_complement",
    "clamp",
    "quantize_linear",
    "saturate",
    "EventQueue",
]
