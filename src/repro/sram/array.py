"""A bit-true model of an SRAM array with multi-row activation.

The array is a grid of single-bit cells addressed by (word-line row,
bit-line column).  A standard array is 256 x 256 (8 KB); MAICC's CMem
slices are 64 x 256 (2 KB).  Besides normal single-row read/write the model
supports the bit-line computing primitive of Jeloka et al.: activating two
word-lines simultaneously drives each bit-line pair to the AND (BL) and NOR
(BLB) of the two stored bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, SRAMError
from repro.sram.bitline import BitlineResult, bitline_and_nor


@dataclass(frozen=True)
class SRAMArrayConfig:
    """Geometry of one SRAM array.

    ``rows`` is the number of word-lines, ``cols`` the number of bit-lines.
    ``eight_transistor`` marks 8T cells (used by CMem slice 0) which allow
    simultaneous, non-destructive read and write ports.
    """

    rows: int = 256
    cols: int = 256
    eight_transistor: bool = False

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"SRAM array must have positive dimensions, got {self.rows}x{self.cols}"
            )


@dataclass
class SRAMStats:
    """Operation counters used by the energy model."""

    reads: int = 0
    writes: int = 0
    compute_activations: int = 0


class SRAMArray:
    """Bit-true SRAM array with single-row access and dual-row computing."""

    def __init__(self, config: SRAMArrayConfig = SRAMArrayConfig()) -> None:
        self.config = config
        self._cells = np.zeros((config.rows, config.cols), dtype=np.uint8)
        self.stats = SRAMStats()

    # -- bounds checking ---------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.config.rows:
            raise SRAMError(
                f"row {row} out of range [0, {self.config.rows})"
            )

    def _check_cols(self, col_start: int, width: int) -> None:
        if col_start < 0 or col_start + width > self.config.cols:
            raise SRAMError(
                f"columns [{col_start}, {col_start + width}) out of range "
                f"[0, {self.config.cols})"
            )

    # -- conventional access -----------------------------------------------

    def read_row(self, row: int) -> np.ndarray:
        """Read one full word-line as a 0/1 vector (a copy)."""
        self._check_row(row)
        self.stats.reads += 1
        return self._cells[row].copy()

    def write_row(self, row: int, bits: Sequence[int]) -> None:
        """Write one full word-line from a 0/1 vector."""
        self._check_row(row)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.config.cols,):
            raise SRAMError(
                f"row write expects {self.config.cols} bits, got shape {bits.shape}"
            )
        if bits.size and bits.max() > 1:
            raise SRAMError("row bits must be 0/1")
        self.stats.writes += 1
        self._cells[row] = bits

    # -- vertical (8T) access ----------------------------------------------

    def _check_vertical(self, row_start: int, height: int) -> None:
        if not self.config.eight_transistor:
            raise SRAMError(
                "vertical access requires 8T cells (CMem slice 0 only)"
            )
        if row_start < 0 or row_start + height > self.config.rows:
            raise SRAMError(
                f"rows [{row_start}, {row_start + height}) out of range "
                f"[0, {self.config.rows})"
            )

    def write_vertical(self, row_start: int, col: int, bits: Sequence[int]) -> None:
        """Write one bit-column span through the 8T vertical port.

        The whole span goes through the port in a single access — one
        byte store of the transpose buffer — so it charges exactly one
        write, not one per bit.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        self._check_vertical(row_start, bits.shape[0])
        self._check_cols(col, 1)
        self.stats.writes += 1
        self._cells[row_start : row_start + bits.shape[0], col] = bits

    def read_vertical(self, row_start: int, col: int, height: int) -> np.ndarray:
        """Read one bit-column span through the 8T vertical port (one read)."""
        self._check_vertical(row_start, height)
        self._check_cols(col, 1)
        self.stats.reads += 1
        return self._cells[row_start : row_start + height, col].copy()

    def write_vertical_planes(
        self, row_start: int, col_start: int, planes: np.ndarray
    ) -> None:
        """Bulk vertical store: ``planes`` is ``(height, width)``; column
        ``c`` lands in bit-lines ``col_start + c``, rows ``row_start..``.

        Each column is one vertical-port access, so this charges
        ``width`` writes — identical to ``width`` ``write_vertical`` calls.
        """
        planes = np.asarray(planes, dtype=np.uint8)
        if planes.ndim != 2:
            raise SRAMError(f"expected a 2-D bit matrix, got shape {planes.shape}")
        self._check_vertical(row_start, planes.shape[0])
        self._check_cols(col_start, planes.shape[1])
        self.stats.writes += planes.shape[1]
        self._cells[
            row_start : row_start + planes.shape[0],
            col_start : col_start + planes.shape[1],
        ] = planes

    # -- bulk row access ----------------------------------------------------

    def update_rows(self, row_start: int, col_start: int, planes: np.ndarray) -> None:
        """Read-modify-write a column span of consecutive rows.

        Row ``k`` of ``planes`` replaces columns
        ``[col_start, col_start + width)`` of word-line ``row_start + k``.
        Charges one read + one write per row — each row is sensed, merged
        and driven back, exactly like the ``read_row``/``write_row`` pairs
        this replaces.
        """
        planes = np.asarray(planes, dtype=np.uint8)
        if planes.ndim != 2:
            raise SRAMError(f"expected a 2-D bit matrix, got shape {planes.shape}")
        n_rows, width = planes.shape
        if row_start < 0 or row_start + n_rows > self.config.rows:
            raise SRAMError(
                f"rows [{row_start}, {row_start + n_rows}) out of range "
                f"[0, {self.config.rows})"
            )
        self._check_cols(col_start, width)
        if planes.size and planes.max() > 1:
            raise SRAMError("row bits must be 0/1")
        self.stats.reads += n_rows
        self.stats.writes += n_rows
        self._cells[row_start : row_start + n_rows, col_start : col_start + width] = (
            planes
        )

    def clear(self) -> None:
        """Zero the whole array (power-on state)."""
        self._cells[:] = 0

    # -- bit-line computing -------------------------------------------------

    def activate_pair(self, row_a: int, row_b: int) -> BitlineResult:
        """Activate two word-lines at once (Jeloka et al. bit-line computing).

        Returns the AND/NOR sensed on the bit-lines.  Activating the same
        row twice is rejected: real hardware would short a cell against
        itself and the architecture never needs it.
        """
        self._check_row(row_a)
        self._check_row(row_b)
        if row_a == row_b:
            raise SRAMError("cannot activate the same word-line twice")
        self.stats.compute_activations += 1
        return bitline_and_nor(self._cells[row_a], self._cells[row_b])

    def activate_pairs_outer(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        *,
        checked: bool = True,
    ) -> tuple:
        """Activate every pair in ``rows_a x rows_b`` (the MAC.C pattern).

        One MAC.C walks the full cross product of its two operand row
        ranges, so the batch is expressed *factored*: the method returns
        the two stacked bit-plane blocks ``(planes_a, planes_b)`` — the
        AND plane of pair ``(i, j)`` is the elementwise product of
        ``planes_a[i]`` and ``planes_b[j]`` — and peripheral folds
        (:meth:`~repro.cmem.adder_tree.AdderTree.popcount_outer`) consume
        the factors directly instead of materializing all
        ``len(rows_a) * len(rows_b)`` planes.  Charges one compute
        activation per pair, identical to the equivalent
        :meth:`activate_pair` loop.
        """
        rows_a = np.asarray(rows_a, dtype=np.intp)
        rows_b = np.asarray(rows_b, dtype=np.intp)
        if checked:
            for rows in (rows_a, rows_b):
                if rows.ndim != 1:
                    raise SRAMError("row index vectors must be 1-D")
                if rows.size and (
                    int(rows.min()) < 0 or int(rows.max()) >= self.config.rows
                ):
                    raise SRAMError(
                        f"row index out of range [0, {self.config.rows})"
                    )
            if rows_a.size and rows_b.size and np.isin(rows_a, rows_b).any():
                raise SRAMError("cannot activate the same word-line twice")
        self.stats.compute_activations += rows_a.size * rows_b.size
        return self._cells[rows_a], self._cells[rows_b]
