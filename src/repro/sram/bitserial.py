"""Cycle costs of bit-serial element-wise arithmetic on transposed SRAM data.

This is the Neural Cache / Compute Caches compute model (Sec. 2.2): vectors
are stored transposed (bit ``i`` of every element on word-line ``i``), and
arithmetic proceeds one bit position per step using the bit-line AND/XOR
plus a per-bit-line carry latch in the periphery.

Cycle costs follow the paper's closed forms for two vectors of ``n``-bit
words:

* addition: ``n + 1`` cycles,
* multiplication: ``n^2 + 5n - 2`` cycles,
* reduction of a ``w``-element vector: ``log2(w)`` iterations of shift +
  add on operands that grow by one bit per iteration.

The simulator prices the Neural Cache baseline from these closed forms
alone.  Their bit-true oracle, an ALU that reads and writes the cells of
an :class:`~repro.sram.array.SRAMArray`, is ``tests/bitserial.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SRAMError


@dataclass(frozen=True)
class BitSerialCosts:
    """Closed-form cycle costs of the element-wise primitives."""

    @staticmethod
    def add(n_bits: int) -> int:
        return n_bits + 1

    @staticmethod
    def multiply(n_bits: int) -> int:
        return n_bits * n_bits + 5 * n_bits - 2

    @staticmethod
    def copy(n_bits: int) -> int:
        """Row-by-row copy of an n-bit vector (one read+write per bit)."""
        return 2 * n_bits

    @staticmethod
    def reduce(width: int, n_bits: int) -> int:
        """Tree reduction by iterative shift + add (Fig. 4(a) of the paper).

        Each of the ``log2(width)`` iterations shifts half the elements
        under the other half (a vector move, one cycle per bit) and adds
        (``n + 1`` cycles); operand width grows one bit per iteration
        because the partial sums grow.
        """
        if width & (width - 1):
            raise SRAMError(f"reduction width must be a power of two, got {width}")
        cycles = 0
        bits = n_bits
        w = width
        while w > 1:
            cycles += bits          # shift/move
            cycles += bits + 1      # add
            bits += 1
            w //= 2
        return cycles
