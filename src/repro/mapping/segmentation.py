"""The three layer-segmentation strategies of Table 6.

* **single-layer** — no segmentation: each layer is its own segment and
  gets as many cores as it can use (up to the array size); segments run
  one after another.
* **greedy** — pack as many layers as possible into each segment, giving
  every layer only its capacity-minimum node group.
* **heuristic** (Sec. 4.3) — group adjacent layers with the same ifmap
  size into one segment (splitting when a group exceeds the array), then
  balance the workload inside each segment with the Eq. (1) allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import MappingError
from repro.mapping.allocation import AllocationResult, TimingFn, allocate_segment
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, NetworkSpec


@dataclass
class Segment:
    """One group of layers mapped onto the array simultaneously."""

    layers: List[ConvLayerSpec]
    allocation: AllocationResult

    def nodes_of(self, index: int) -> int:
        """Total node-group size (computing cores + 1 DC) for one layer."""
        return self.allocation.nodes[index] + 1

    @property
    def total_nodes(self) -> int:
        return self.allocation.total_nodes()

    @property
    def shape(self) -> tuple:
        """Each layer's shape and computing cores, in layer order: all
        that the segment's timings, charges and op counts read besides
        the run's config."""
        nodes = self.allocation.nodes
        return tuple((spec.shape, nodes[spec.index]) for spec in self.layers)


@dataclass
class SegmentPlan:
    """A full mapping of a network: ordered segments."""

    strategy: str
    network: NetworkSpec
    segments: List[Segment] = field(default_factory=list)

    def segment_of(self, layer_index: int) -> Segment:
        for segment in self.segments:
            if layer_index in segment.allocation.nodes:
                return segment
        raise MappingError(f"layer {layer_index} appears in no segment")

    def nodes_of(self, layer_index: int) -> int:
        return self.segment_of(layer_index).nodes_of(layer_index)


class MappingStrategy:
    """Base class; subclasses implement :meth:`plan`."""

    name = "base"

    def __init__(
        self,
        array_size: int,
        capacity: Optional[CapacityModel] = None,
    ) -> None:
        # The compute cores the plan may use: a SimConfig's array_size.
        self.array_size = array_size
        self.capacity = capacity or CapacityModel()

    def plan(self, network: NetworkSpec, timing: TimingFn) -> SegmentPlan:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def _min_group(self, spec: ConvLayerSpec) -> int:
        """Node-group size (with DC) at the capacity minimum."""
        return self.capacity.min_nodes(spec, max_nodes=self.array_size - 1) + 1

    def _fits(self, layers: Sequence[ConvLayerSpec]) -> bool:
        return sum(self._min_group(spec) for spec in layers) <= self.array_size

    def _split_to_fit(
        self, layers: Iterable[ConvLayerSpec]
    ) -> List[List[ConvLayerSpec]]:
        """Pack ``layers`` in order into chunks, closing each chunk when
        the next layer's capacity-minimum group would overflow the array."""
        chunks: List[List[ConvLayerSpec]] = []
        current: List[ConvLayerSpec] = []
        used = 0
        for spec in layers:
            size = self._min_group(spec)
            if size > self.array_size:
                raise MappingError(f"{spec.name} does not fit the array alone")
            if used + size > self.array_size and current:
                chunks.append(current)
                current, used = [], 0
            current.append(spec)
            used += size
        if current:
            chunks.append(current)
        return chunks

    def _allocator(
        self, timing: TimingFn
    ) -> Callable[[List[ConvLayerSpec]], AllocationResult]:
        """:func:`allocate_segment` on this array, run once per distinct
        chunk of one :meth:`plan` call.

        An allocation depends only on its layers' shapes, in order (the
        indices merely key its dicts), so a chunk that repeats an earlier
        chunk's shapes (the passes of a tiled layer) gets that allocation
        relabeled with its own layer indices.
        """
        first: Dict[tuple, AllocationResult] = {}

        def allocate(chunk: List[ConvLayerSpec]) -> AllocationResult:
            key = tuple(spec.shape for spec in chunk)
            seen = first.get(key)
            if seen is None:
                first[key] = allocate_segment(
                    chunk, self.array_size, timing, self.capacity
                )
                return first[key]
            return seen.relabeled([spec.index for spec in chunk])

        return allocate


class SingleLayerStrategy(MappingStrategy):
    """Each layer alone on the array with its maximum useful node count."""

    name = "single-layer"

    def plan(self, network: NetworkSpec, timing: TimingFn) -> SegmentPlan:
        plan = SegmentPlan(strategy=self.name, network=network)
        allocate = self._allocator(timing)
        for spec in network:
            if not self._fits([spec]):
                raise MappingError(f"{spec.name} does not fit the array alone")
            plan.segments.append(Segment(layers=[spec], allocation=allocate([spec])))
        return plan


class GreedyStrategy(MappingStrategy):
    """Fill each segment with as many minimum-size node groups as fit."""

    name = "greedy"

    def plan(self, network: NetworkSpec, timing: TimingFn) -> SegmentPlan:
        plan = SegmentPlan(strategy=self.name, network=network)
        for chunk in self._split_to_fit(network):
            plan.segments.append(self._close(chunk, timing))
        return plan

    def _close(self, layers: List[ConvLayerSpec], timing: TimingFn) -> Segment:
        allocation = AllocationResult()
        for spec in layers:
            count = self.capacity.min_nodes(spec, max_nodes=self.array_size - 1)
            allocation.nodes[spec.index] = count
            allocation.times[spec.index] = timing(spec, count)
        allocation.bottleneck_time = max(allocation.times.values())
        return Segment(layers=list(layers), allocation=allocation)


class HeuristicStrategy(MappingStrategy):
    """Group by ifmap size, then balance with the Eq. (1) allocator."""

    name = "heuristic"

    def plan(self, network: NetworkSpec, timing: TimingFn) -> SegmentPlan:
        plan = SegmentPlan(strategy=self.name, network=network)
        allocate = self._allocator(timing)
        for group in self._group_by_ifmap(list(network)):
            for chunk in self._split_to_fit(group):
                plan.segments.append(Segment(layers=chunk, allocation=allocate(chunk)))
        return plan

    @staticmethod
    def _group_by_ifmap(layers: List[ConvLayerSpec]) -> List[List[ConvLayerSpec]]:
        groups: List[List[ConvLayerSpec]] = []
        for spec in layers:
            key = (spec.h, spec.w)
            if groups and (groups[-1][0].h, groups[-1][0].w) == key:
                groups[-1].append(spec)
            else:
                groups.append([spec])
        return groups


STRATEGIES: Dict[str, type] = {
    cls.name: cls
    for cls in (SingleLayerStrategy, GreedyStrategy, HeuristicStrategy)
}
