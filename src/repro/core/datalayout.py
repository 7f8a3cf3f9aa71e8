"""Data layout of filters and ifmap vectors inside one node's CMem (Fig. 6).

Every filter pixel (one ``r, s`` position, one 256-channel sub-vector) is a
transposed vector occupying ``N`` rows of one compute slice.  Each slice
reserves its first ``N`` rows for the broadcast ifmap vector; the remaining
``Q = 64/N - 1`` row groups hold filter vectors.  Filter vectors of one
filter may scatter across slices because the R*S partial sums are combined
in the pipeline, not in-situ (Sec. 4.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.cmem.geometry import COLS, LANE_WIDTH, LANES
from repro.errors import CapacityError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec


@dataclass(frozen=True)
class LayoutEntry:
    """Where one filter pixel's sub-vector lives."""

    filter_index: int  # local index on this node
    fr: int            # kernel row
    fs: int            # kernel column
    sub: int           # 256-channel sub-vector index (C > 256)
    slice_index: int   # compute slice (1..7)
    row: int           # first of the N rows


@dataclass
class NodeLayout:
    """Complete CMem placement for one computing core."""

    spec: ConvLayerSpec
    n_bits: int
    num_filters: int
    entries: List[LayoutEntry] = field(default_factory=list)
    ifmap_row: int = 0  # ifmap vectors sit at the top of every slice

    @property
    def slices_used(self) -> List[int]:
        return sorted({e.slice_index for e in self.entries})

    @property
    def csr_mask(self) -> int:
        """CSR lane mask covering the layer's channel count."""
        lanes = min(LANES, max(1, math.ceil(min(self.spec.c, COLS) / LANE_WIDTH)))
        return (1 << lanes) - 1


def plan_node_layout(
    spec: ConvLayerSpec,
    num_filters: int,
    capacity: CapacityModel = CapacityModel(),
) -> NodeLayout:
    """Assign every filter pixel of ``num_filters`` filters to a CMem slot.

    This is the *bit-true* layout (no lane packing): each sub-vector gets a
    private row group, so functional simulation can drive it directly.
    """
    n = spec.n_bits
    q = capacity.vector_slots_per_slice(n)
    sub_vectors = max(1, math.ceil(spec.c / capacity.cols))
    total_slots = num_filters * spec.r * spec.s * sub_vectors
    available = capacity.compute_slices * q
    if total_slots > available:
        raise CapacityError(
            f"{spec.name}: {num_filters} filters need {total_slots} vector "
            f"slots but a node has {available}"
        )
    layout = NodeLayout(spec=spec, n_bits=n, num_filters=num_filters)
    slot = 0
    for f in range(num_filters):
        for fr in range(spec.r):
            for fs in range(spec.s):
                for sub in range(sub_vectors):
                    slice_index = 1 + slot // q
                    slot_in_slice = slot % q
                    layout.entries.append(
                        LayoutEntry(
                            filter_index=f,
                            fr=fr,
                            fs=fs,
                            sub=sub,
                            slice_index=slice_index,
                            row=n * (1 + slot_in_slice),
                        )
                    )
                    slot += 1
    return layout


def load_filters_into_cmem(
    cmem,
    layout: NodeLayout,
    weights: np.ndarray,
) -> None:
    """Stage quantized filter weights into a CMem per the layout.

    ``weights`` has shape (num_filters, C, R, S) in signed integers.  In
    hardware the (pre-transposed) weights stream in from DRAM through
    LoadRow.RC; here they are placed directly, charging vertical-write
    energy, which is the staging path's dominant cost.
    """
    for entry in layout.entries:
        channels = weights[entry.filter_index, :, entry.fr, entry.fs]
        lo = entry.sub * COLS
        hi = min(channels.shape[0], lo + COLS)
        if lo >= channels.shape[0]:
            raise CapacityError(
                f"sub-vector {entry.sub} exceeds {channels.shape[0]} channels"
            )
        cmem.store_vector_transposed(
            entry.slice_index, entry.row, channels[lo:hi], layout.n_bits, signed=True
        )


def split_filters_across_nodes(m: int, num_nodes: int) -> List[Tuple[int, int]]:
    """Partition ``m`` filters over ``num_nodes`` as (start, count) ranges.

    Earlier nodes take the remainder, matching the paper's chain order
    (the first computing cores sit next to the DC).
    """
    base, extra = divmod(m, num_nodes)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(num_nodes):
        count = base + (1 if i < extra else 0)
        ranges.append((start, count))
        start += count
    return ranges
