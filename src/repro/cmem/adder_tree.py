"""Peripheral compute logic of slices 1-7: adder tree + shift-accumulator.

Fig. 4(b) / Fig. 8 of the paper: after a dual-row activation the 256 sensed
AND bits feed a 256-input adder tree whose population count is shifted by
``i + j`` (the bit positions of the two activated rows) and accumulated
into the ``Res`` register.  These three steps are pipelined, so a full
``n``-bit MAC costs about ``n^2`` cycles.

Signed arithmetic: with two's-complement operands the weight of bit
position ``n-1`` is negative, so a partial product where exactly one of
``i, j`` is the sign position is *subtracted* rather than added.  The
shift-accumulator implements this with an add/sub control line — a single
extra gate, consistent with the paper's "negligible peripheral logic"
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.cmem.geometry import COLS, FULL_CSR_MASK, LANE_WIDTH, LANES
from repro.errors import CMemError
from repro.utils.bitops import popcount


class AdderTree:
    """A slice-wide population-count tree with a 32-bit-lane mask.

    The mask models the per-slice CSR (Sec. 3.3): 8 bits, each enabling one
    group of 32 bit-lines.  Channel counts in CONV layers are mostly
    multiples of 32, hence the granularity.
    """

    def __init__(self) -> None:
        # Mask expansions are memoized per tree: the mask is a slice CSR
        # that rarely changes between consecutive MACs.
        self._mask_cache: Dict[int, np.ndarray] = {}
        self._mask_f32_cache: Dict[int, np.ndarray] = {}

    def lane_mask_bits(self, mask: int) -> np.ndarray:
        """Expand an 8-bit CSR mask to a read-only per-bit-line 0/1 vector."""
        cached = self._mask_cache.get(mask)
        if cached is not None:
            return cached
        if not 0 <= mask < (1 << LANES):
            raise CMemError(f"CSR mask {mask:#x} out of range for {LANES} lanes")
        lanes = np.array([(mask >> lane) & 1 for lane in range(LANES)], dtype=np.uint8)
        bits = np.repeat(lanes, LANE_WIDTH)
        bits.setflags(write=False)
        self._mask_cache[mask] = bits
        return bits

    def popcount(self, bits: np.ndarray, mask: int = FULL_CSR_MASK) -> int:
        """Sum the masked AND bits (step 2 of the MAC pipeline)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (COLS,):
            raise CMemError(
                f"adder tree expects {COLS} bits, got shape {bits.shape}"
            )
        return popcount(bits & self.lane_mask_bits(mask))

    def _mask_f32(self, mask: int) -> np.ndarray:
        mask_vec = self._mask_f32_cache.get(mask)
        if mask_vec is None:
            mask_vec = self.lane_mask_bits(mask).astype(np.float32)
            mask_vec.setflags(write=False)
            self._mask_f32_cache[mask] = mask_vec
        return mask_vec

    def popcount_outer(
        self,
        planes_a: np.ndarray,
        planes_b: np.ndarray,
        mask: int = FULL_CSR_MASK,
    ) -> np.ndarray:
        """Masked popcounts of all cross pairs of two bit-plane blocks.

        ``planes_a`` is ``(n_a, COLS)`` and ``planes_b`` ``(n_b, COLS)``;
        entry ``(i, j)`` of the ``(n_a, n_b)`` int64 result is the masked
        popcount of ``planes_a[i] AND planes_b[j]`` — for 0/1 planes the
        AND is a product, so the whole grid is one float32 matrix product
        (exact: counts are bounded by ``COLS`` << 2^24).
        """
        planes_a = np.asarray(planes_a, dtype=np.uint8)
        planes_b = np.asarray(planes_b, dtype=np.uint8)
        if (
            planes_a.ndim != 2
            or planes_b.ndim != 2
            or planes_a.shape[1] != COLS
            or planes_b.shape[1] != COLS
        ):
            raise CMemError(
                f"adder tree expects (*, {COLS}) plane blocks, got "
                f"shapes {planes_a.shape} and {planes_b.shape}"
            )
        masked_a = planes_a.astype(np.float32) * self._mask_f32(mask)
        counts = masked_a @ planes_b.astype(np.float32).T
        return counts.astype(np.int64)


@dataclass
class ShiftAccumulator:
    """The ``Res`` register: shift partial sums by ``i + j`` and accumulate."""

    value: int = 0
    adds: int = field(default=0)

    def clear(self) -> None:
        self.value = 0

    def accumulate(self, partial: int, shift: int, *, negative: bool = False) -> None:
        """Fold one partial popcount: ``Res += (+-partial) << shift``."""
        if shift < 0:
            raise CMemError(f"negative shift {shift}")
        contribution = partial << shift
        self.value += -contribution if negative else contribution
        self.adds += 1

    def fold_batch(self, total: int, num_partials: int) -> None:
        """Load a pre-folded batch of ``num_partials`` shift-adds at once.

        The vectorized MAC engine folds all partial popcounts in one
        weighted matrix product; this records the result with the same
        ``adds`` tally the per-partial :meth:`accumulate` loop would leave.
        """
        self.value += int(total)
        self.adds += num_partials
