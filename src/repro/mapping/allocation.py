"""Node allocation inside one segment — the Eq. (1) optimizer.

Given the layers of a segment and a budget of computing cores, choose how
many computing cores each layer's node group gets so that the slowest
layer (the pipeline bottleneck) is as fast as possible:

    min  max_i T_i(nodes_i)     s.t.  sum_i (nodes_i + 1) <= M

``T_i`` comes from a caller-supplied timing function (the performance
model of :mod:`repro.core.perfmodel`), which already embodies
``T_i = max(T_CMem, T_aux + T_rs)``.  The solver starts every layer at its
capacity minimum and greedily gives spare cores to the current bottleneck
— optimal here because every ``T_i`` is non-increasing in ``nodes_i`` and
the objective is the max.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.errors import MappingError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec

# (layer, computing cores) -> expected per-layer time in cycles.  It may
# read only the layer's shape (``ConvLayerSpec.shape``), never its labels.
TimingFn = Callable[[ConvLayerSpec, int], float]


def proportional_shares(
    minimums: Sequence[int],
    weights: Sequence[float],
    total: int,
) -> List[int]:
    """Split ``total`` cores: minimums first, spare by weight.

    Every party receives its minimum; the spare is distributed
    proportionally to ``weights`` (floor), and the round-off remainder
    goes to the heaviest party.  This is the array-level analogue of the
    per-segment solver above; both :class:`repro.core.multi_dnn` (static
    partitioning) and the elastic partition manager of
    :mod:`repro.serving` resize through it, so a static run and an
    elastic run that observes proportional demand derive identical
    shares.
    """
    if not minimums or len(minimums) != len(weights):
        raise MappingError(
            f"need matching non-empty minimums/weights, got "
            f"{len(minimums)}/{len(weights)}"
        )
    if any(w < 0 for w in weights):
        raise MappingError(f"weights must be >= 0: {list(weights)}")
    if sum(minimums) > total:
        raise MappingError(
            f"parties need at least {sum(minimums)} cores together but only "
            f"{total} are available"
        )
    spare = total - sum(minimums)
    weight_sum = sum(weights)
    if weight_sum <= 0:
        # No demand signal: leave everyone at the minimum, remainder to
        # the first party for a deterministic full cover.
        shares = list(minimums)
        shares[0] += spare
        return shares
    shares = [
        minimum + int(spare * weight / weight_sum)
        for minimum, weight in zip(minimums, weights)
    ]
    shares[max(range(len(shares)), key=lambda i: weights[i])] += total - sum(shares)
    return shares


@dataclass
class AllocationResult:
    """Computing-core counts per layer (data-collection cores excluded)."""

    nodes: Dict[int, int] = field(default_factory=dict)  # layer index -> cores
    times: Dict[int, float] = field(default_factory=dict)
    bottleneck_time: float = 0.0

    def total_nodes(self, dc_per_layer: int = 1) -> int:
        return sum(self.nodes.values()) + dc_per_layer * len(self.nodes)

    def relabeled(self, indices: Sequence[int]) -> "AllocationResult":
        """This allocation for the layers ``indices``, in layer order."""
        return AllocationResult(
            nodes=dict(zip(indices, self.nodes.values())),
            times=dict(zip(indices, self.times.values())),
            bottleneck_time=self.bottleneck_time,
        )


def allocate_segment(
    layers: Sequence[ConvLayerSpec],
    budget: int,
    timing: TimingFn,
    capacity: CapacityModel = CapacityModel(),
    *,
    dc_per_layer: int = 1,
) -> AllocationResult:
    """Distribute ``budget`` cores (computing + DC) over a segment."""
    if not layers:
        raise MappingError("cannot allocate an empty segment")
    result = AllocationResult()
    per_layer_cap = budget - dc_per_layer * len(layers)
    minimum = {
        spec.index: capacity.min_nodes(spec, max_nodes=per_layer_cap)
        for spec in layers
    }
    maximum = {
        spec.index: min(capacity.max_useful_nodes(spec), per_layer_cap)
        for spec in layers
    }
    used = sum(minimum.values()) + dc_per_layer * len(layers)
    if used > budget:
        raise MappingError(
            f"segment needs at least {used} cores but the budget is {budget}"
        )
    result.nodes = dict(minimum)
    for spec in layers:
        result.times[spec.index] = timing(spec, result.nodes[spec.index])

    spare = budget - used
    specs = {spec.index: spec for spec in layers}
    while spare > 0:
        # Give one core to the layer that currently limits the pipeline and
        # can still benefit from another core.
        candidates = [
            idx for idx in result.nodes
            if result.nodes[idx] < maximum[idx]
        ]
        if not candidates:
            break
        bottleneck = max(candidates, key=lambda idx: result.times[idx])
        new_count = result.nodes[bottleneck] + 1
        new_time = timing(specs[bottleneck], new_count)
        if new_time >= result.times[bottleneck]:
            # The binding bottleneck no longer improves with more cores;
            # spending further budget cannot lower the segment maximum.
            overall = max(result.times, key=lambda idx: result.times[idx])
            if bottleneck == overall:
                break
        result.nodes[bottleneck] = new_count
        result.times[bottleneck] = new_time
        spare -= 1
    result.bottleneck_time = max(result.times.values())
    return result
