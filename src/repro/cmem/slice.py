"""CMem slices: row-indexed compute slices and the dual-addressed slice 0.

Slice geometry (Sec. 3.2): 64 rows x 256 columns = 2 KB.  A slice holds
eight 8-bit or four 16-bit transposed vectors.

Slice 0 ("TransposeBuffer") is built from 8T cells and is *vertically*
byte-addressable (Fig. 5): byte address ``a`` (0..2047) maps to row group
``a // 256`` and bit-line ``a % 256``, with bit ``i`` of the byte stored at
row ``8 * (a // 256) + i``.  Streaming a 256-element int8 vector through
plain ``store`` instructions therefore lands it already transposed in one
row group, ready to be read out row-wise by ``Move.C``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cmem.geometry import COLS, FULL_CSR_MASK, LANE_WIDTH, ROWS
from repro.errors import CMemError, RowIndexError
from repro.sram.array import SRAMArray, SRAMArrayConfig
from repro.utils.bitops import bytes_to_bitplanes


class CMemSlice:
    """One 64 x 256 compute slice, accessible only by row index."""

    def __init__(self, index: int, *, eight_transistor: bool = False) -> None:
        self.index = index
        self.array = SRAMArray(
            SRAMArrayConfig(
                rows=ROWS, cols=COLS, eight_transistor=eight_transistor
            )
        )
        # Per-slice CSR: one mask bit per 32-bit-line lane (Sec. 3.3).
        self.csr_mask = FULL_CSR_MASK

    def _check_row(self, row: int) -> None:
        if not 0 <= row < ROWS:
            raise RowIndexError(
                f"slice {self.index}: row {row} out of range [0, {ROWS})"
            )

    def read_row(self, row: int) -> np.ndarray:
        self._check_row(row)
        return self.array.read_row(row)

    def write_row(self, row: int, bits: Sequence[int]) -> None:
        self._check_row(row)
        self.array.write_row(row, bits)

    def set_row(self, row: int, value: int) -> None:
        """SetRow.C: drive one full row to all-zeros or all-ones."""
        if value not in (0, 1):
            raise CMemError(f"SetRow.C value must be 0 or 1, got {value}")
        self._check_row(row)
        self.array.write_row(row, np.full(COLS, value, dtype=np.uint8))

    def shift_row(self, row: int, words: int) -> None:
        """ShiftRow.C: rotate one row by ``words`` 32-bit groups.

        Positive ``words`` shifts toward higher bit-line indices; vacated
        lanes fill with zeros (the paper uses it for vector alignment when
        packing sub-256-channel vectors, together with CSR masking).
        """
        self._check_row(row)
        if words == 0:
            return
        shift_bits = words * LANE_WIDTH
        if abs(shift_bits) >= COLS:
            raise CMemError(
                f"ShiftRow.C by {words} words exceeds the {COLS}-bit row"
            )
        bits = self.array.read_row(row)
        out = np.zeros_like(bits)
        if shift_bits > 0:
            out[shift_bits:] = bits[: COLS - shift_bits]
        else:
            out[: COLS + shift_bits] = bits[-shift_bits:]
        self.array.write_row(row, out)

    def activate_pair(self, row_a: int, row_b: int):
        self._check_row(row_a)
        self._check_row(row_b)
        return self.array.activate_pair(row_a, row_b)

    def activate_pairs_outer(
        self,
        rows_a: Sequence[int],
        rows_b: Sequence[int],
        *,
        checked: bool = True,
    ):
        """All-pairs (MAC.C-pattern) activation, factored into plane blocks."""
        return self.array.activate_pairs_outer(rows_a, rows_b, checked=checked)


class TransposeBuffer(CMemSlice):
    """Slice 0: dual-addressed (byte-vertical + row) cache/transpose buffer."""

    BYTES = ROWS * COLS // 8  # 2048

    def __init__(self) -> None:
        super().__init__(index=0, eight_transistor=True)

    def _locate(self, addr: int) -> tuple[int, int]:
        if not 0 <= addr < self.BYTES:
            raise CMemError(
                f"slice-0 byte address {addr} out of range [0, {self.BYTES})"
            )
        group = addr // COLS
        column = addr % COLS
        return group, column

    def store_byte(self, addr: int, value: int) -> None:
        """Vertical byte store: bit ``i`` goes to row ``8*group + i``.

        The byte goes through the 8T vertical port in one access, so the
        array counts a single write (not one per bit).
        """
        if not 0 <= value < 256:
            raise CMemError(f"byte value {value} out of range")
        group, column = self._locate(addr)
        bits = (value >> np.arange(8)) & 1
        self.array.write_vertical(8 * group, column, bits.astype(np.uint8))

    def load_byte(self, addr: int) -> int:
        """Vertical byte load, inverse of :meth:`store_byte` (one read)."""
        group, column = self._locate(addr)
        bits = self.array.read_vertical(8 * group, column, 8).astype(np.int64)
        return int(bits @ (1 << np.arange(8, dtype=np.int64)))

    def store_vector(self, group: int, values: Sequence[int], n_bits: int = 8) -> None:
        """Store a whole vector vertically into row groups starting at ``group``.

        Elements are written one per bit-line; ``n_bits`` of 16 uses two
        adjacent 8-row groups per element (the software layout the paper
        describes for 16-bit data).  All bytes of one row group land in a
        single bulk transpose; the stats still count one vertical-port
        access per byte, exactly as the per-byte stream would.
        """
        if n_bits % 8:
            raise CMemError(f"vertical stores are byte-granular, got {n_bits} bits")
        values = np.asarray(list(values), dtype=np.int64)
        if len(values) > COLS:
            raise CMemError(
                f"vector of {len(values)} elements exceeds {COLS} bit-lines"
            )
        n_groups = n_bits // 8
        if not 0 <= group <= ROWS // 8 - n_groups:
            raise CMemError(f"row group {group} out of range for {n_bits}-bit store")
        encoded = values & ((1 << n_bits) - 1)
        for g in range(n_groups):
            byte_plane = (encoded >> (8 * g)) & 0xFF
            planes = bytes_to_bitplanes(byte_plane)
            self.array.write_vertical_planes(8 * (group + g), 0, planes)
