"""How many filters fit in one node's CMem (Sec. 4.1).

With ``N``-bit precision each compute slice reserves ``N`` rows for the
incoming ifmap vector, leaving ``Q = 64/N - 1`` transposed vector slots
per slice and ``7 * Q`` per node.  A filter of size ``R x S x C`` needs
``R * S * ceil(C / 256)`` vector slots; when ``C < 256`` up to
``floor(256 / C)`` vectors share one slot group (ShiftRow.C + CSR masking,
Sec. 3.3), which also divides the MAC count because one masked MAC.C
covers every packed filter pixel at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cmem.geometry import COLS, LANE_WIDTH, ROWS, SLICES
from repro.errors import CapacityError
from repro.nn.workloads import ConvLayerSpec


@dataclass(frozen=True)
class CapacityModel:
    """The per-node filter-capacity model of the execution framework.

    Defaults are the paper's node (:mod:`repro.cmem.geometry`); the
    design-space sweeps vary the compute slices and rows.
    """

    compute_slices: int = SLICES - 1
    rows: int = ROWS
    cols: int = COLS
    lane_width: int = LANE_WIDTH

    def vector_slots_per_slice(self, n_bits: int) -> int:
        """Q = rows/N - 1: one N-row group is reserved for the ifmap."""
        q = self.rows // n_bits - 1
        if q < 1:
            raise CapacityError(
                f"{n_bits}-bit vectors leave no filter slots in a "
                f"{self.rows}-row slice"
            )
        return q

    def total_vector_slots(self, n_bits: int) -> int:
        return self.compute_slices * self.vector_slots_per_slice(n_bits)

    def packing_factor(self, c: int) -> int:
        """How many sub-256-channel vectors share one slot (lane-aligned)."""
        if c >= self.cols:
            return 1
        # Vectors are aligned to 32-lane groups for CSR masking.
        lanes_needed = max(1, math.ceil(c / self.lane_width))
        return max(1, (self.cols // self.lane_width) // lanes_needed)

    def vectors_per_filter(self, spec: ConvLayerSpec) -> int:
        """Unpacked vector-slot demand of one filter."""
        return spec.r * spec.s * max(1, math.ceil(spec.c / self.cols))

    def filters_per_node(self, spec: ConvLayerSpec) -> int:
        """Whole filters one node holds (0 when a filter must be split)."""
        slots = self.total_vector_slots(spec.n_bits)
        packed_capacity = slots * self.packing_factor(spec.c)
        return packed_capacity // self.vectors_per_filter(spec)

    def macs_per_filter_per_pixel(self, spec: ConvLayerSpec) -> int:
        """MAC.C issues per held filter per ifmap vector.

        Packing lets one masked MAC.C cover ``p`` filter pixels, so the MAC
        count divides by the packing factor (capped by R*S).
        """
        p = self.packing_factor(spec.c)
        sub_vectors = max(1, math.ceil(spec.c / self.cols))
        return max(1, math.ceil(spec.r * spec.s / p)) * sub_vectors

    def min_nodes_split(self, spec: ConvLayerSpec) -> int:
        """Capacity minimum when filters may be split across nodes.

        Sub-vector fragments of one filter produce partial sums that the
        pipelines merge; capacity is then bounded only by total vector
        slots.  Used when whole-filter placement exceeds the array (the
        conv4_x layers of ResNet18, Table 6).
        """
        total_vectors = spec.m * self.vectors_per_filter(spec)
        packed = math.ceil(total_vectors / self.packing_factor(spec.c))
        return math.ceil(packed / self.total_vector_slots(spec.n_bits))

    def min_nodes(self, spec: ConvLayerSpec, max_nodes: Optional[int] = None) -> int:
        """Fewest computing cores that can hold the whole layer's filters.

        With ``max_nodes`` given, falls back to split-filter placement when
        whole-filter placement would exceed it.
        """
        fpn = self.filters_per_node(spec)
        if fpn >= 1:
            whole = math.ceil(spec.m / fpn)
            if max_nodes is None or whole <= max_nodes:
                return whole
        split = self.min_nodes_split(spec)
        if max_nodes is not None and split > max_nodes:
            raise CapacityError(
                f"{spec.name} needs {split} cores even with split filters "
                f"(cap {max_nodes})"
            )
        return split

    def max_useful_nodes(self, spec: ConvLayerSpec) -> int:
        """Beyond one filter (or one fragment) per node, extra nodes idle."""
        fpn = self.filters_per_node(spec)
        if fpn >= 1:
            return spec.m
        total_vectors = spec.m * self.vectors_per_filter(spec)
        fragments = math.ceil(
            total_vectors / self.vector_slots_per_slice(spec.n_bits)
        )
        return fragments

    def filters_held(self, spec: ConvLayerSpec, num_nodes: int) -> float:
        """Average filters per node when the layer runs on ``num_nodes``."""
        if num_nodes < 1:
            raise CapacityError("a node group needs at least one computing core")
        minimum = self.min_nodes_split(spec)
        if num_nodes < minimum:
            raise CapacityError(
                f"{spec.name}: {num_nodes} nodes cannot hold {spec.m} filters "
                f"(min {minimum})"
            )
        return spec.m / num_nodes
