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

import numpy as np

from repro.errors import CMemError
from repro.utils.bitops import popcount


@dataclass
class AdderTree:
    """A ``width``-input population-count tree with a 32-bit-lane mask.

    The mask models the per-slice CSR (Sec. 3.3): 8 bits, each enabling one
    group of 32 bit-lines.  Channel counts in CONV layers are mostly
    multiples of 32, hence the granularity.
    """

    width: int = 256
    lane_width: int = 32

    def __post_init__(self) -> None:
        if self.width % self.lane_width:
            raise CMemError(
                f"adder tree width {self.width} not a multiple of lane width "
                f"{self.lane_width}"
            )

    @property
    def num_lanes(self) -> int:
        return self.width // self.lane_width

    def lane_mask_bits(self, mask: int) -> np.ndarray:
        """Expand an 8-bit CSR mask to a per-bit-line 0/1 vector.

        Expansions are memoized per tree — the mask is a slice CSR that
        rarely changes between consecutive MACs.  The cached vector is
        read-only.
        """
        cached = self.__dict__.setdefault("_mask_cache", {}).get(mask)
        if cached is not None:
            return cached
        if not 0 <= mask < (1 << self.num_lanes):
            raise CMemError(
                f"CSR mask {mask:#x} out of range for {self.num_lanes} lanes"
            )
        lanes = np.array(
            [(mask >> lane) & 1 for lane in range(self.num_lanes)], dtype=np.uint8
        )
        bits = np.repeat(lanes, self.lane_width)
        bits.setflags(write=False)
        self._mask_cache[mask] = bits
        return bits

    def popcount(self, bits: np.ndarray, mask: int = 0xFF) -> int:
        """Sum the masked AND bits (step 2 of the MAC pipeline)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.width,):
            raise CMemError(
                f"adder tree expects {self.width} bits, got shape {bits.shape}"
            )
        return popcount(bits & self.lane_mask_bits(mask))

    def _mask_f32(self, mask: int) -> np.ndarray:
        cache = self.__dict__.setdefault("_mask_f32_cache", {})
        mask_vec = cache.get(mask)
        if mask_vec is None:
            mask_vec = self.lane_mask_bits(mask).astype(np.float32)
            mask_vec.setflags(write=False)
            cache[mask] = mask_vec
        return mask_vec

    def popcount_outer(
        self, planes_a: np.ndarray, planes_b: np.ndarray, mask: int = 0xFF
    ) -> np.ndarray:
        """Masked popcounts of all cross pairs of two bit-plane blocks.

        ``planes_a`` is ``(n_a, width)`` and ``planes_b`` ``(n_b, width)``;
        entry ``(i, j)`` of the ``(n_a, n_b)`` int64 result is the masked
        popcount of ``planes_a[i] AND planes_b[j]`` — for 0/1 planes the
        AND is a product, so the whole grid is one float32 matrix product
        (exact: counts are bounded by ``width`` << 2^24).
        """
        planes_a = np.asarray(planes_a, dtype=np.uint8)
        planes_b = np.asarray(planes_b, dtype=np.uint8)
        if (
            planes_a.ndim != 2
            or planes_b.ndim != 2
            or planes_a.shape[1] != self.width
            or planes_b.shape[1] != self.width
        ):
            raise CMemError(
                f"adder tree expects (*, {self.width}) plane blocks, got "
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
