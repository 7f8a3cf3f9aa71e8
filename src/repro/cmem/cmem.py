"""The computing memory device: slices + MAC primitive + accounting.

Functional semantics are bit-true: ``mac`` really activates row pairs of
the underlying SRAM arrays, pops the AND bits through the adder tree, and
folds sign-weighted partial sums — so every result is checkable against a
NumPy dot product.  Cycle and energy costs follow Table 2 and Sec. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CMemError, SliceIndexError
from repro.cmem.adder_tree import AdderTree, ShiftAccumulator
from repro.cmem.geometry import COLS, ROWS, SLICES
from repro.cmem.isa import CMemOp, cmem_op_cycles
from repro.cmem.slice import CMemSlice, TransposeBuffer
from repro.sram.energy import EnergyAccumulator
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.telemetry.hooks import publish_stats
from repro.utils.bitops import pack_transposed_cached


@lru_cache(maxsize=64)
def _row_offsets(n_bits: int) -> np.ndarray:
    """Row offsets ``0..n_bits-1`` of one transposed operand, read-only."""
    offs = np.arange(n_bits, dtype=np.intp)
    offs.setflags(write=False)
    return offs


@lru_cache(maxsize=64)
def _bit_weights(n_bits: int, signed: bool) -> np.ndarray:
    """Per-bit-position weights ``+-2^i`` (sign bit negative if signed)."""
    weights = (1 << np.arange(n_bits, dtype=np.int64)).astype(np.int64)
    if signed:
        weights[-1] = -weights[-1]
    weights.setflags(write=False)
    return weights


@dataclass
class CMemStats:
    """Operation and cycle tally of one CMem."""

    macs: int = 0
    moves: int = 0
    set_rows: int = 0
    shift_rows: int = 0
    remote_rows: int = 0
    vertical_writes: int = 0
    busy_cycles: int = 0

    def charge(self, op: CMemOp, cycles: int) -> None:
        self.busy_cycles += cycles
        if op is CMemOp.MAC_C:
            self.macs += 1
        elif op is CMemOp.MOVE_C:
            self.moves += 1
        elif op is CMemOp.SETROW_C:
            self.set_rows += 1
        elif op is CMemOp.SHIFTROW_C:
            self.shift_rows += 1
        else:
            self.remote_rows += 1


class CMem:
    """One node's computing memory: slice 0 + compute slices 1..S-1.

    ``fast_path`` selects the execution engine for ``mac``/``mac_many``:

    * ``True`` (default) — the vectorized bit-plane engine: all ``n^2``
      dual-row activations of a MAC happen in one batched NumPy call and
      the partial popcounts fold through a single weighted matrix product.
    * ``False`` — the per-pair reference engine: one ``activate_pair`` +
      adder-tree popcount + shift-accumulate per bit pair.

    Both paths are bit-true and charge identical cycles, energy, and
    operation counters; the differential tests in
    ``tests/cmem/test_fast_path.py`` pin that equivalence.
    """

    def __init__(
        self,
        *,
        fast_path: bool = True,
        telemetry: Optional[TelemetrySink] = None,
        track: str = "cmem",
    ) -> None:
        self.fast_path = fast_path
        self.slice0 = TransposeBuffer()
        self.compute_slices: List[CMemSlice] = [
            CMemSlice(index=i) for i in range(1, SLICES)
        ]
        self.adder_tree = AdderTree()
        self.accumulator = ShiftAccumulator()
        self.stats = CMemStats()
        self.energy = EnergyAccumulator()
        self._telemetry = telemetry if telemetry is not None else _current_telemetry()
        self.track = track

    # -- slice addressing -----------------------------------------------------

    def slice(self, index: int) -> CMemSlice:
        """Slice by global index; 0 is the transpose buffer."""
        if index == 0:
            return self.slice0
        if not 1 <= index < SLICES:
            raise SliceIndexError(f"slice {index} out of range [0, {SLICES})")
        return self.compute_slices[index - 1]

    # -- extended ISA semantics (Table 2) --------------------------------------

    def mac(
        self,
        slice_index: int,
        row_a: int,
        row_b: int,
        n_bits: int,
        *,
        signed: bool = True,
        mask: Optional[int] = None,
    ) -> int:
        """MAC.C: dot product of two transposed n-bit vectors in one slice.

        The vectors occupy rows ``[row_a, row_a + n_bits)`` and
        ``[row_b, row_b + n_bits)`` (LSB first).  For every bit pair
        ``(i, j)`` the slice activates both rows, the adder tree pops the
        masked AND bits, and the shift-accumulator folds
        ``popcount << (i + j)`` — subtracting when exactly one of the
        positions is the sign bit (two's complement).  Returns the scalar
        written back to a core register.
        """
        sl = self._check_mac_operands(slice_index, row_a, [row_b], n_bits)
        if mask is None:
            mask = sl.csr_mask
        self.accumulator.clear()
        if self.fast_path:
            value = self._mac_fast(sl, row_a, row_b, n_bits, signed, mask)
        else:
            value = self._mac_reference(sl, row_a, row_b, n_bits, signed, mask)
        cycles = cmem_op_cycles(CMemOp.MAC_C, n_bits)
        self.stats.charge(CMemOp.MAC_C, cycles)
        self.energy.charge("mac")
        return value

    def _check_mac_operands(
        self, slice_index: int, row_a: int, weight_rows: Sequence[int], n_bits: int
    ) -> CMemSlice:
        """Shared MAC validation; returns the target slice."""
        sl = self.slice(slice_index)
        if slice_index == 0:
            raise CMemError("slice 0 is the transpose buffer; MAC runs in slices 1+")
        if row_a + n_bits > ROWS:
            raise CMemError("MAC operand rows exceed the slice")
        for row_b in weight_rows:
            if row_b + n_bits > ROWS:
                raise CMemError("MAC operand rows exceed the slice")
            if not (row_a + n_bits <= row_b or row_b + n_bits <= row_a):
                raise CMemError("MAC operand row ranges overlap")
        return sl

    def _mac_reference(
        self, sl: CMemSlice, row_a: int, row_b: int, n_bits: int,
        signed: bool, mask: int,
    ) -> int:
        """The per-pair engine: one activation + popcount per bit pair."""
        sign_pos = n_bits - 1
        for i in range(n_bits):
            for j in range(n_bits):
                sensed = sl.activate_pair(row_a + i, row_b + j)
                partial = self.adder_tree.popcount(sensed.and_bits, mask)
                negative = signed and ((i == sign_pos) != (j == sign_pos))
                self.accumulator.accumulate(partial, i + j, negative=negative)
        return self.accumulator.value

    def _mac_fast(
        self, sl: CMemSlice, row_a: int, row_b: int, n_bits: int,
        signed: bool, mask: int,
    ) -> int:
        """The vectorized engine: all ``n^2`` pairs in one batched activation.

        The fold is the closed form of the reference loop: with per-bit
        weights ``w_i = +-2^i`` (negative at the sign position), the
        accumulated value is ``w^T P w`` where ``P[i, j]`` is the masked
        popcount of rows ``(row_a + i, row_b + j)`` — each term
        ``w_i w_j P[i, j]`` is exactly ``+-popcount << (i + j)`` with the
        sign the two's-complement rule dictates.
        """
        offs = _row_offsets(n_bits)
        planes_a, planes_b = sl.activate_pairs_outer(
            row_a + offs, row_b + offs, checked=False
        )
        partials = self.adder_tree.popcount_outer(planes_a, planes_b, mask)
        weights = _bit_weights(n_bits, signed)
        value = int(weights @ partials @ weights)
        self.accumulator.fold_batch(value, n_bits * n_bits)
        return self.accumulator.value

    def mac_many(
        self,
        slice_index: int,
        row_a: int,
        weight_rows: Sequence[int],
        n_bits: int,
        *,
        signed: bool = True,
        mask: Optional[int] = None,
    ) -> np.ndarray:
        """Batched MAC.C: one ifmap vector against every resident filter.

        Issues the equivalent of ``len(weight_rows)`` back-to-back ``mac``
        calls — same operand ``row_a`` for the broadcast ifmap vector, one
        base row per filter vector — and returns the per-filter scalars.
        Cycles, energy, and per-pair activation counts are charged exactly
        as the individual MAC.C instructions would be; only the Python-level
        evaluation is fused (a single ``einsum`` over all bit planes).
        """
        weight_rows = [int(r) for r in weight_rows]
        sl = self._check_mac_operands(slice_index, row_a, weight_rows, n_bits)
        if mask is None:
            mask = sl.csr_mask
        if not weight_rows:
            return np.zeros(0, dtype=np.int64)
        if not self.fast_path:
            return np.array(
                [
                    self.mac(
                        slice_index, row_a, row_b, n_bits, signed=signed, mask=mask
                    )
                    for row_b in weight_rows
                ],
                dtype=np.int64,
            )
        k = len(weight_rows)
        offs = _row_offsets(n_bits)
        rows_b = (np.asarray(weight_rows, dtype=np.intp)[:, None] + offs).reshape(-1)
        planes_a, planes_b = sl.activate_pairs_outer(
            row_a + offs, rows_b, checked=False
        )
        # (n, k*n) popcount grid; bit pair (i, j) of filter f at [i, f*n + j].
        partials = self.adder_tree.popcount_outer(planes_a, planes_b, mask)
        weights = _bit_weights(n_bits, signed)
        values = np.einsum(
            "i,ikj,j->k", weights, partials.reshape(n_bits, k, n_bits), weights
        )
        cycles = cmem_op_cycles(CMemOp.MAC_C, n_bits)
        busy_before = self.stats.busy_cycles
        for value in values:
            self.accumulator.clear()
            self.accumulator.fold_batch(int(value), n_bits * n_bits)
            self.stats.charge(CMemOp.MAC_C, cycles)
        self.energy.charge("mac", k)
        if self._telemetry.enabled:
            # One span per batched MAC burst on the device's busy-cycle
            # clock (monotone by construction of ``CMemStats.charge``).
            assert self._telemetry.trace is not None
            self._telemetry.trace.complete(
                self.track,
                f"mac_burst[{k}]",
                busy_before,
                cycles * k,
                args={"macs": k, "slice": slice_index, "n_bits": n_bits},
            )
        return values.astype(np.int64)

    def move(
        self,
        src_slice: int,
        src_row: int,
        dst_slice: int,
        dst_row: int,
        n_bits: int,
    ) -> None:
        """Move.C: copy an n-bit transposed vector between slices."""
        src = self.slice(src_slice)
        dst = self.slice(dst_slice)
        if src_row + n_bits > ROWS or dst_row + n_bits > ROWS:
            raise CMemError("Move.C rows exceed the slice")
        for k in range(n_bits):
            dst.write_row(dst_row + k, src.read_row(src_row + k))
        self.stats.charge(CMemOp.MOVE_C, cmem_op_cycles(CMemOp.MOVE_C, n_bits))
        self.energy.charge("move")

    def set_row(self, slice_index: int, row: int, value: int) -> None:
        """SetRow.C: clear or fill one row."""
        self.slice(slice_index).set_row(row, value)
        self.stats.charge(CMemOp.SETROW_C, cmem_op_cycles(CMemOp.SETROW_C))
        self.energy.charge("write_row")

    def shift_row(self, slice_index: int, row: int, words: int) -> None:
        """ShiftRow.C: align one row by 32-bit steps.

        A zero-word shift never reaches the array (the slice early-returns),
        so it charges neither cycles nor read/write energy.
        """
        self.slice(slice_index).shift_row(row, words)
        if words == 0:
            return
        self.stats.charge(CMemOp.SHIFTROW_C, cmem_op_cycles(CMemOp.SHIFTROW_C))
        self.energy.charge("read_row")
        self.energy.charge("write_row")

    def read_row(self, slice_index: int, row: int) -> np.ndarray:
        """Row readout used by StoreRow.RC (the NoC carries the 256 bits)."""
        bits = self.slice(slice_index).read_row(row)
        self.stats.charge(CMemOp.STOREROW_RC, cmem_op_cycles(CMemOp.STOREROW_RC))
        self.energy.charge("remote_row")
        return bits

    def write_row(self, slice_index: int, row: int, bits: Sequence[int]) -> None:
        """Row write used by LoadRow.RC (receiving a remote row)."""
        self.slice(slice_index).write_row(row, bits)
        self.stats.charge(CMemOp.LOADROW_RC, cmem_op_cycles(CMemOp.LOADROW_RC))
        self.energy.charge("remote_row")

    # -- telemetry -----------------------------------------------------------------

    def publish_stats(self, prefix: Optional[str] = None) -> None:
        """Publish the operation/cycle tally into the metrics registry.

        No-op on a disabled sink.  Call once per logical run; counters
        accumulate, so repeated publication double-counts by design only
        if the caller re-publishes the same tally.
        """
        publish_stats(self._telemetry, prefix or self.track, self.stats)

    # -- data staging helpers ----------------------------------------------------

    def store_vector_transposed(
        self,
        slice_index: int,
        base_row: int,
        values: Sequence[int],
        n_bits: int,
        *,
        signed: bool = True,
        col_offset: int = 0,
    ) -> None:
        """Place a vector transposed at ``base_row`` of a slice.

        This is the test/staging shortcut for what the hardware does with a
        vertical-write stream through slice 0 followed by ``Move.C``; it
        charges vertical-write energy accordingly.
        """
        sl = self.slice(slice_index)
        values = np.asarray(values, dtype=np.int64)
        if base_row + n_bits > ROWS:
            raise CMemError("transposed store exceeds the slice rows")
        if col_offset + len(values) > COLS:
            raise CMemError("transposed store exceeds the slice columns")
        # Weights are stationary, so encodings are memoized across stagings;
        # the bulk row update keeps the read-modify-write accounting of the
        # per-row loop it replaces.
        bits = pack_transposed_cached(values, n_bits, len(values), signed=signed)
        sl.array.update_rows(base_row, col_offset, bits)
        self.stats.vertical_writes += len(values)
        self.energy.charge("vertical_write", len(values))
