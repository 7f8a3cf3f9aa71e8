"""The bit-true oracle of :class:`repro.sram.bitserial.BitSerialCosts`.

An element-wise bit-serial ALU (the Neural Cache / Compute Caches
compute model, Sec. 2.2 of the paper) that reads and writes the actual
cells of an :class:`~repro.sram.array.SRAMArray` and charges the closed
forms of ``BitSerialCosts`` for each primitive.  The simulator prices
Table 4's Neural Cache row from those closed forms alone; the tests run
this ALU to check that the forms describe a working bit-serial datapath.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SRAMError
from repro.sram.array import SRAMArray
from repro.sram.bitserial import BitSerialCosts


class BitSerialALU:
    """Element-wise bit-serial ALU bound to one SRAM array.

    Rows are addressed by explicit lists so callers control data layout.
    ``self.cycles`` accumulates the modeled cycle cost of every operation.
    """

    def __init__(self, array: SRAMArray) -> None:
        self.array = array
        self.cycles = 0

    # -- helpers -------------------------------------------------------------

    def _gather(self, rows: Sequence[int]) -> np.ndarray:
        return np.stack([self.array.read_row(r) for r in rows])

    def _scatter(self, rows: Sequence[int], bits: np.ndarray) -> None:
        for row, row_bits in zip(rows, bits):
            self.array.write_row(row, row_bits)

    @staticmethod
    def _check_disjoint(out_rows: Sequence[int], *operands: Sequence[int]) -> None:
        out = set(out_rows)
        for rows in operands:
            overlap = out & set(rows)
            if overlap:
                raise SRAMError(
                    f"in-place overlap between operand and result rows: {sorted(overlap)}"
                )

    # -- primitives ------------------------------------------------------------

    def vector_add(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        rows_out: Sequence[int],
    ) -> None:
        """Element-wise add of two transposed vectors.

        ``rows_a``/``rows_b`` list the word-lines of the two operands, LSB
        first.  ``rows_out`` must provide ``n + 1`` rows for the sum
        including the carry-out bit.
        """
        n = len(rows_a)
        if len(rows_b) != n:
            raise SRAMError(f"operand widths differ: {n} vs {len(rows_b)}")
        if len(rows_out) != n + 1:
            raise SRAMError(f"add needs {n + 1} result rows, got {len(rows_out)}")
        self._check_disjoint(rows_out, rows_a, rows_b)
        carry = np.zeros(self.array.config.cols, dtype=np.uint8)
        for i in range(n):
            sensed = self.array.activate_pair(rows_a[i], rows_b[i])
            # XOR = OR AND NOT(AND): one extra gate in the periphery.
            partial = sensed.or_bits & (1 - sensed.and_bits)
            total = (partial ^ carry).astype(np.uint8)
            carry = (sensed.and_bits | (partial & carry)).astype(np.uint8)
            self.array.write_row(rows_out[i], total)
        self.array.write_row(rows_out[n], carry)
        self.cycles += BitSerialCosts.add(n)

    def vector_multiply(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        rows_out: Sequence[int],
        *,
        signed: bool = False,
    ) -> None:
        """Element-wise multiply producing a ``2n``-bit transposed product.

        Functionally: shift-and-add of predicated partial products, as in
        Neural Cache.  The bit-level loop is performed on gathered copies
        (each gather/scatter corresponds to the word-line activations the
        cycle cost already accounts for).
        """
        n = len(rows_a)
        if len(rows_b) != n:
            raise SRAMError(f"operand widths differ: {n} vs {len(rows_b)}")
        if len(rows_out) != 2 * n:
            raise SRAMError(f"multiply needs {2 * n} result rows, got {len(rows_out)}")
        self._check_disjoint(rows_out, rows_a, rows_b)
        a_bits = self._gather(rows_a).astype(np.int64)
        b_bits = self._gather(rows_b).astype(np.int64)
        weights = 1 << np.arange(n, dtype=np.int64)
        a_vals = (a_bits * weights[:, None]).sum(axis=0)
        b_vals = (b_bits * weights[:, None]).sum(axis=0)
        if signed:
            sign = 1 << (n - 1)
            a_vals = np.where(a_vals & sign, a_vals - (1 << n), a_vals)
            b_vals = np.where(b_vals & sign, b_vals - (1 << n), b_vals)
        product = (a_vals * b_vals) & ((1 << (2 * n)) - 1)
        out_bits = ((product[None, :] >> np.arange(2 * n)[:, None]) & 1).astype(np.uint8)
        self._scatter(rows_out, out_bits)
        self.cycles += BitSerialCosts.multiply(n)

    def vector_copy(self, rows_src: Sequence[int], rows_dst: Sequence[int]) -> None:
        """Row-by-row copy of a transposed vector."""
        if len(rows_src) != len(rows_dst):
            raise SRAMError("copy requires equal source/destination widths")
        for src, dst in zip(rows_src, rows_dst):
            self.array.write_row(dst, self.array.read_row(src))
        self.cycles += BitSerialCosts.copy(len(rows_src))

    def reduce(
        self,
        rows: Sequence[int],
        width: int,
        *,
        scratch_rows: Sequence[int],
        signed: bool = False,
    ) -> List[int]:
        """Accumulate all ``width`` elements of one transposed vector.

        Implements the iterative shift-and-add reduction of Fig. 4(a): at
        each step the right half of the surviving elements is shifted under
        the left half and added.  Returns the per-element totals of the
        final single "lane" as Python ints (only lane 0 is meaningful).

        ``scratch_rows`` must provide at least ``len(rows) + log2(width)``
        rows for the growing partial sums.
        """
        n = len(rows)
        steps = 0
        w = width
        while w > 1:
            steps += 1
            w //= 2
        if len(scratch_rows) < n + steps:
            raise SRAMError(
                f"reduction of width {width} needs {n + steps} scratch rows, "
                f"got {len(scratch_rows)}"
            )
        bits = self._gather(rows).astype(np.int64)
        weights = 1 << np.arange(n, dtype=np.int64)
        vals = (bits * weights[:, None]).sum(axis=0)
        if signed:
            sign = 1 << (n - 1)
            vals = np.where(vals & sign, vals - (1 << n), vals)
        vals = vals[:width].copy()
        w = width
        while w > 1:
            half = w // 2
            vals[:half] += vals[half:w]
            w = half
        # Materialize the (now wider) partial sums in the scratch rows so
        # downstream code can keep operating in-array.
        total_bits = n + steps
        mask = (1 << total_bits) - 1
        enc = np.zeros(self.array.config.cols, dtype=np.int64)
        enc[0] = int(vals[0]) & mask
        out = ((enc[None, :] >> np.arange(total_bits)[:, None]) & 1).astype(np.uint8)
        used = list(scratch_rows[:total_bits])
        self._scatter(used, out)
        self.cycles += BitSerialCosts.reduce(width, n)
        return used
