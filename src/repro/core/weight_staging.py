"""Functional weight staging: DRAM -> LLC -> CMem rows.

The filter-load phase (Sec. 6.2) streams pre-transposed weights from the
many-core DRAM into each node's CMem before a segment starts.  This
module implements that path *functionally*: quantized filters are written
into the DRAM model's backing store in transposed row format, then pulled
row-by-row into a CMem exactly as LoadRow.RC would, with DRAM/LLC timing
and traffic accounted.  Weights loaded this way must produce the same
MACs as directly staged ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cmem.cmem import CMem
from repro.core.datalayout import NodeLayout
from repro.dram.controller import DRAMController
from repro.dram.llc import LLCache
from repro.errors import CapacityError
from repro.riscv.memory import DRAM_BASE
from repro.utils.bitops import int_to_bits

_ROW_BYTES = 32  # one 256-bit CMem row


@dataclass
class StagingResult:
    """Cost of one node's filter-load phase."""

    rows_loaded: int
    dram_bytes: int
    load_cycles: int


class WeightStager:
    """Places transposed filter rows in DRAM and loads them into CMems."""

    def __init__(
        self,
        dram: Optional[DRAMController] = None,
        llc: Optional[LLCache] = None,
        base_address: int = DRAM_BASE + 0x10_0000,
    ) -> None:
        self.dram = dram or DRAMController()
        self.llc = llc or LLCache(dram=self.dram)
        self.base_address = base_address
        self._cursor = base_address

    # -- producing the DRAM image -------------------------------------------------

    def write_filters(self, layout: NodeLayout, weights: np.ndarray) -> int:
        """Write one node's filters into DRAM, pre-transposed (Sec. 3.3:
        "the weights can be transposed in advance and loaded directly from
        DRAM").  Returns the image's base address."""
        base = self._cursor
        n = layout.n_bits
        for entry in layout.entries:
            channels = weights[entry.filter_index, :, entry.fr, entry.fs]
            lo = entry.sub * 256
            hi = min(channels.shape[0], lo + 256)
            vec = np.zeros(256, dtype=np.int64)
            vec[: hi - lo] = channels[lo:hi]
            bits = int_to_bits(vec, n, signed=True)
            for row in range(n):
                packed = np.packbits(bits[row], bitorder="little").tobytes()
                self.dram.write_bytes(self._cursor, packed)
                self._cursor += _ROW_BYTES
        return base

    # -- loading into a node -------------------------------------------------------

    def load_into(
        self, cmem: CMem, layout: NodeLayout, image_base: int
    ) -> StagingResult:
        """Pull the image's rows into the CMem per the layout."""
        n = layout.n_bits
        addr = image_base
        rows = 0
        cycles = 0
        for entry in layout.entries:
            for row in range(n):
                data = self.dram.read_bytes(addr, _ROW_BYTES)
                bits = np.unpackbits(
                    np.frombuffer(data, dtype=np.uint8), bitorder="little"
                )
                cmem.write_row(entry.slice_index, entry.row + row, bits)
                cycles += self.llc.access(addr, False, cycles)
                addr += _ROW_BYTES
                rows += 1
        return StagingResult(
            rows_loaded=rows,
            dram_bytes=rows * _ROW_BYTES,
            load_cycles=cycles,
        )


def stage_node(
    cmem: CMem,
    layout: NodeLayout,
    weights: np.ndarray,
    stager: Optional[WeightStager] = None,
) -> StagingResult:
    """Convenience: write one node's filters to DRAM and load them back."""
    if weights.shape[0] < layout.num_filters:
        raise CapacityError(
            f"layout expects {layout.num_filters} filters, got {weights.shape[0]}"
        )
    stager = stager or WeightStager()
    base = stager.write_filters(layout, weights)
    return stager.load_into(cmem, layout, base)
