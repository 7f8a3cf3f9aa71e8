"""SRAM substrate: bit-cell arrays, bit-line computing, bit-serial costs.

This package models the in-SRAM computing technology MAICC builds on
(Sec. 2.2 of the paper): 6T arrays where activating two word-lines at once
yields the AND and NOR of the two rows on the bit-lines, and the cycle
costs of the bit-serial element-wise arithmetic of Compute Caches / Neural
Cache built on top.
"""

from repro.sram.array import SRAMArray, SRAMArrayConfig
from repro.sram.bitline import BitlineResult, bitline_and_nor
from repro.sram.bitserial import BitSerialCosts

__all__ = [
    "SRAMArray",
    "SRAMArrayConfig",
    "BitlineResult",
    "bitline_and_nor",
    "BitSerialCosts",
]
