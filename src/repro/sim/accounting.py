"""Backend-independent mapping and accounting shared by every tier.

The mapping pipeline (segmentation strategy → plan), the Eq. (1) layer
timings, the filter-load and fmap-staging charges, and the op-count /
energy attribution are properties of the *mapped network*, not of the
fidelity tier that simulates it.  Factoring them here is what makes the
tiers comparable: an ``analytic`` and an ``event`` run of the same plan
differ only in the per-segment compute cycles their tier produced.

All functions here are verbatim moves of the original chip simulator's
internals; the streaming backend's results are pinned byte-identical to
the pre-refactor output (``tests/sim/test_differential_pins.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.perfmodel import LayerTiming, PerformanceModel, TimingParams
from repro.errors import MappingError
from repro.mapping.capacity import CapacityModel
from repro.mapping.segmentation import (
    MappingStrategy,
    Segment,
    SegmentPlan,
    STRATEGIES,
)
from repro.nn.workloads import ConvLayerSpec, NetworkSpec
from repro.noc.packet import Packet, PacketKind
from repro.sim.config import SimConfig
from repro.energy.power import OpCounts

#: Flits of a chain row packet and of a scalar ofmap store, as the NoC
#: sizes them.
_ROW_FLITS, _STORE_FLITS = (
    Packet((0, 0), (0, 0), kind).flits
    for kind in (PacketKind.ROW_TRANSFER, PacketKind.REMOTE_STORE)
)


#: The Eq. (1) standalone times of one planning session: the machine
#: (``SimConfig.params``, ``SimConfig.capacity``), then a layer's
#: ``(ConvLayerSpec.shape, computing cores)``, to cycles.  The times do
#: not depend on the array size, so every partition size a session plans
#: reads the same entries, and two machines never share one.
TimingMemo = Dict[Tuple[TimingParams, CapacityModel], Dict[tuple, float]]


def performance_model(config: SimConfig) -> PerformanceModel:
    """The Eq. (1) model for this machine description."""
    return PerformanceModel(config.params, config.capacity)


def plan_network(
    network: NetworkSpec,
    strategy: str,
    config: SimConfig,
    memo: Optional[TimingMemo] = None,
) -> SegmentPlan:
    """Plan the segmentation of ``network`` with a named strategy.

    The network is planned as given: tile it first
    (:func:`~repro.mapping.tiling.tile_network`) when a layer is too
    large for the whole array.  ``memo`` is the caller's planning
    session (a scheduler's, or one sweep's): planning reads and extends
    it.  Left out, the memo lasts this one call.
    """
    try:
        strategy_cls = STRATEGIES[strategy]
    except KeyError:
        raise MappingError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    mapper: MappingStrategy = strategy_cls(
        array_size=config.array_size, capacity=config.capacity
    )
    layer_time = performance_model(config).layer_time_fn()
    # The allocator tries many core counts per layer, and repeated blocks
    # and tiled passes repeat a shape: evaluate each (shape, cores) once
    # per session.
    times = (
        {} if memo is None
        else memo.setdefault((config.params, config.capacity), {})
    )

    def timing(spec: ConvLayerSpec, nodes: int) -> float:
        key = (spec.shape, nodes)
        cycles = times.get(key)
        if cycles is None:
            cycles = times[key] = layer_time(spec, nodes)
        return cycles

    return mapper.plan(network, timing)


def segment_timings(
    model: PerformanceModel, segment: Segment
) -> List[LayerTiming]:
    """Eq. (1) timings of every layer of one mapped segment."""
    timings = []
    for i, spec in enumerate(segment.layers):
        timings.append(
            model.layer_timing(
                spec,
                segment.allocation.nodes[spec.index],
                from_dram=(i == 0),
            )
        )
    return timings


def segment_weight_bytes(segment: Segment) -> float:
    """Weight footprint streamed into the segment's CMems."""
    return sum(spec.weight_count * spec.n_bits / 8 for spec in segment.layers)


def exposed_filter_load_cycles(config: SimConfig, weight_bytes: float) -> float:
    """Filter-load cycles not hidden behind compute (Sec. 6.2)."""
    return (
        weight_bytes
        / config.params.filter_load_bw
        * (1.0 - config.params.filter_load_overlap)
    )


def boundary_bytes(plan: SegmentPlan, k: int) -> int:
    """Fmap bytes staged through DRAM after segment ``k``."""
    last = plan.segments[k].layers[-1]
    oh, ow = last.ofmap_hw
    return last.m * oh * ow * last.n_bits // 8


def staging_cycles(config: SimConfig, plan: SegmentPlan, k: int) -> float:
    """Write-out + read-back of the boundary fmaps around segment ``k``."""
    bw = config.params.filter_load_bw
    cycles = 0.0
    if k > 0:
        cycles += boundary_bytes(plan, k - 1) / bw  # read back in
    if k < len(plan.segments) - 1:
        cycles += boundary_bytes(plan, k) / bw  # write out
    return cycles


def steady_interval(timings: Sequence[LayerTiming]) -> float:
    """Per-sample interval at steady state: the bottleneck station's
    busy time.  Extra batch samples stream through at this rate."""
    return max(lt.iterations * lt.interval for lt in timings)


def count_segment_ops(
    ops: OpCounts,
    model: PerformanceModel,
    capacity: CapacityModel,
    segment: Segment,
    timings: List[LayerTiming],
    compute_cycles: float,
    weight_bytes: float,
    batch: int = 1,
) -> None:
    """Accumulate one segment's operation counts into ``ops``.

    ``compute_cycles`` is whatever the selected tier reported for the
    segment — the only tier-dependent input to the energy model (it
    scales the core-active leakage term).
    """
    cap = capacity
    for lt in timings:
        spec = lt.spec
        nodes = lt.computing_nodes
        vpf = cap.macs_per_filter_per_pixel(spec)
        ops.macs += spec.ofmap_pixels * spec.m * vpf * batch
        sub = max(1, math.ceil(spec.c / cap.cols))
        iterations = lt.iterations
        # Broadcast moves happen on every node, every iteration.
        slices = model.slices_used(spec, nodes)
        ops.moves += iterations * slices * sub * nodes * batch
        # The DC writes one full row group per vector.
        ops.vertical_writes += iterations * cap.cols * sub * batch
        # Vector forwarding along the chain: N rows per hop.
        row_transfers = iterations * spec.n_bits * sub * nodes * batch
        ops.remote_rows += row_transfers
        ops.noc_flit_hops += row_transfers * _ROW_FLITS  # 1 hop
        # Ofmap values to the next DC: scalar stores, ~2 hops.
        ofmap_values = spec.ofmap_pixels * spec.m * batch
        ops.noc_flit_hops += ofmap_values * _STORE_FLITS * 2
    # DRAM traffic: weights plus this segment's input and output fmaps.
    first, last = segment.layers[0], segment.layers[-1]
    in_bytes = first.c * first.ifmap_pixels * first.n_bits // 8
    oh, ow = last.ofmap_hw
    out_bytes = last.m * oh * ow * last.n_bits // 8
    dram_bytes = int(weight_bytes) + (in_bytes + out_bytes) * batch
    ops.dram_bytes += dram_bytes
    ops.llc_accesses += dram_bytes // 64
    ops.noc_flit_hops += (dram_bytes // 8) * 8  # LLC<->core traffic, ~8 hops
    active = segment.total_nodes
    ops.core_active_cycles += int(active * compute_cycles)
