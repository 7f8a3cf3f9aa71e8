"""The bit-line computing primitive.

When two word-lines are activated simultaneously, each bit-line (BL)
discharges iff *either* stored bit is 0, so the sense amplifier on BL reads
the AND of the two bits, and the one on the complementary bit-line (BLB)
reads the NOR (Jeloka et al. 2016; Aga et al., HPCA 2017).  All other
bitwise operations are derived from these two plus a write-back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BitlineResult:
    """What the sense amplifiers observe after a dual-row activation."""

    and_bits: np.ndarray
    nor_bits: np.ndarray

    @property
    def or_bits(self) -> np.ndarray:
        """OR = NOT(NOR); computed by an inverter after the BLB amplifier."""
        return (1 - self.nor_bits).astype(np.uint8)


def bitline_and_nor(row_a: np.ndarray, row_b: np.ndarray) -> BitlineResult:
    """Compute the (AND, NOR) pair sensed when both rows are activated."""
    a = np.asarray(row_a, dtype=np.uint8)
    b = np.asarray(row_b, dtype=np.uint8)
    and_bits = (a & b).astype(np.uint8)
    nor_bits = ((1 - a) & (1 - b)).astype(np.uint8)
    return BitlineResult(and_bits=and_bits, nor_bits=nor_bits)
