"""The Eq. (1) performance model: per-iteration, per-layer, per-segment.

One *iteration* is the handling of one ifmap vector by one computing core
(Algorithm 1): broadcast it into the compute slices, MAC it against every
held filter vector, accumulate partial sums, run auxiliary functions on
ofmap values completed this iteration, and forward the vector to the next
core.  The paper's Eq. (1) reduces this to

    T_i = max(T_CMem, T_aux + T_rs)

because static + dynamic scheduling let the scalar pipeline run under the
multi-cycle CMem instructions.  This module computes the two sides from
first principles (instruction counts x unit costs), exposes them per
component (Fig. 9's breakdown), and gives each layer of a segment its
inter-layer pipelined start offset.

All constants are grouped in :class:`TimingParams`; defaults were
calibrated once against the paper's single-node measurement (Table 4:
~730 cycles per iteration for 5x(3x3x256) filters) and the closed form
``7N + Q N^2`` of Sec. 4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cmem.isa import MAC_C, MAX_OPERAND_BITS, MOVE_C, cmem_op_cycles
from repro.errors import CMemError, MappingError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec


#: Table 2's Move.C and MAC.C cycles for every legal operand width, read
#: from :func:`~repro.cmem.isa.cmem_op_cycles` once: ``iteration_timing``
#: runs thousands of times per sweep, and a lookup costs no call.
_VECTOR_OP_CYCLES = {
    n: (cmem_op_cycles(MOVE_C, n), cmem_op_cycles(MAC_C, n))
    for n in range(1, MAX_OPERAND_BITS + 1)
}


@dataclass(frozen=True)
class TimingParams:
    """Unit costs (cycles) of the performance model."""

    issue_cost: float = 1.0          # pipeline issue slot per CMem instruction
    acc_cost: float = 5.0            # accumulate one MAC psum (lw/add/sw + addressing)
    aux_cost: float = 22.0           # quant+norm+act(+pool) per finished ofmap value
    ofmap_send_cost: float = 3.0     # remote-store one finished ofmap value
    loop_cost: float = 12.0          # per-iteration flag checks + loop overhead
    ifmap_forward_cost: float = 2.0  # per StoreRow.RC forwarding the vector
    handshake_cost: float = 24.0     # p/nextp software-lock round trip
    transpose_byte_cost: float = 3.0  # per vertical byte store at the DC (lb+sb+inc)
    dc_overhead: float = 48.0        # DC per-vector loop/flag overhead
    dram_fetch_cost_per_byte: float = 0.5  # streamed ifmap fetch through LLC
    hop_latency: float = 2.0         # NoC per-hop delay
    filter_load_bw: float = 16.0     # bytes/cycle aggregate weight-load rate
    filter_load_overlap: float = 0.9  # fraction hidden behind compute (Sec. 6.2)
    overlap: bool = True             # static+dynamic scheduling (Eq. 1 max)
    # Residual hazard stalls the instruction-count model misses; calibrated
    # against the cycle-level node simulator (Table 4 workload).
    pipeline_overhead: float = 1.3
    # Whether one core's MACs in different slices overlap in time.  The
    # paper's Eq. (1) many-core model is *serial* (T_CMem = k1 * n_i, linear
    # in filters per node — its Table 6 intervals match macs * N^2), while
    # its node-level closed form (7N + Q N^2, Table 4) exploits slice
    # parallelism.  Default False reproduces the many-core evaluation; the
    # ablation bench flips it.
    slice_parallel_cmem: bool = False


@dataclass(frozen=True)
class IterationTiming:
    """Cycle breakdown of one computing-core iteration."""

    t_cmem: float
    t_issue: float
    t_acc: float
    t_aux: float
    t_ofmap_send: float
    t_loop: float
    t_forward: float  # T_rs of Eq. (1): pushing the vector downstream
    macs_per_iteration: float
    overlap: bool

    @property
    def t_scalar(self) -> float:
        """Everything the RISC-V pipeline itself must execute."""
        return self.t_issue + self.t_acc + self.t_aux + self.t_ofmap_send + self.t_loop

    @property
    def total(self) -> float:
        """T_i of Eq. (1)."""
        if self.overlap:
            return max(self.t_cmem, self.t_scalar + self.t_forward)
        return self.t_cmem + self.t_scalar + self.t_forward

    def breakdown(self) -> Dict[str, float]:
        return {
            "cmem": self.t_cmem,
            "issue": self.t_issue,
            "accumulate": self.t_acc,
            "aux": self.t_aux,
            "send_ofmap": self.t_ofmap_send,
            "loop": self.t_loop,
            "send_ifmap": self.t_forward,
        }


@dataclass(frozen=True)
class DCTiming:
    """Cycle breakdown of one data-collection-core iteration."""

    t_fetch: float
    t_transpose: float
    t_send: float
    t_overhead: float

    @property
    def total(self) -> float:
        return self.t_fetch + self.t_transpose + self.t_send + self.t_overhead


@dataclass(frozen=True)
class LayerTiming:
    """Timing of one layer mapped onto a node group."""

    spec: ConvLayerSpec
    computing_nodes: int
    iteration: IterationTiming
    dc: DCTiming
    iterations: int          # ifmap vectors streamed through the group
    fill_per_hop: float      # chain fill latency per computing core

    @property
    def interval(self) -> float:
        """Steady-state cycles between consecutive ifmap vectors."""
        return max(self.iteration.total, self.dc.total)

    @property
    def fill(self) -> float:
        return self.computing_nodes * self.fill_per_hop

    @property
    def standalone_cycles(self) -> float:
        """Latency when the layer runs alone (single-layer strategy)."""
        return self.fill + self.iterations * self.interval


class PerformanceModel:
    """Evaluates iterations and layers in cycles."""

    def __init__(
        self,
        params: TimingParams = TimingParams(),
        capacity: Optional[CapacityModel] = None,
    ) -> None:
        self.params = params
        self.capacity = capacity or CapacityModel()

    # -- per-core ------------------------------------------------------------

    def slices_used(self, spec: ConvLayerSpec, computing_nodes: int) -> int:
        """Compute slices a node engages.

        Filter vectors are *spread* across all seven slices whenever there
        are enough of them — slices compute in parallel, so spreading
        maximizes MAC throughput even when capacity would fit fewer slices.
        """
        return self._slices_holding(
            spec, self.capacity.filters_held(spec, computing_nodes)
        )

    def _slices_holding(self, spec: ConvLayerSpec, filters_held: float) -> int:
        """:meth:`slices_used` by a node holding ``filters_held`` filters."""
        cap = self.capacity
        slots = filters_held * cap.vectors_per_filter(spec) / cap.packing_factor(spec.c)
        return min(cap.compute_slices, max(1, math.ceil(slots)))

    def iteration_timing(self, spec: ConvLayerSpec, computing_nodes: int) -> IterationTiming:
        """Breakdown of one iteration for one of ``computing_nodes`` cores."""
        p = self.params
        cap = self.capacity
        n = spec.n_bits
        n_i = cap.filters_held(spec, computing_nodes)
        sub_vectors = max(1, math.ceil(spec.c / cap.cols))
        vpf_macs = cap.macs_per_filter_per_pixel(spec)
        # Work per incoming ifmap vector, averaged over the stream (stride
        # reduces the share of vectors that start output windows).
        density = spec.ofmap_pixels / spec.ifmap_pixels
        macs = n_i * vpf_macs * density
        slices_used = self._slices_holding(spec, n_i)
        moves = slices_used * sub_vectors
        if n not in _VECTOR_OP_CYCLES:
            raise CMemError(
                f"{spec.name}: {n}-bit operands are outside the CMem's "
                f"1..{MAX_OPERAND_BITS}-bit operand range"
            )
        move_cycles, mac_cycles = _VECTOR_OP_CYCLES[n]
        if p.slice_parallel_cmem:
            # Slices compute in parallel; moves serialize through slice 0.
            per_slice = math.ceil(macs / slices_used) if macs else 0
            t_cmem = moves * move_cycles + per_slice * mac_cycles
        else:
            # Paper's Eq. (1): CMem occupancy linear in the per-node work.
            t_cmem = moves * move_cycles + macs * mac_cycles
        completed = n_i * density  # ofmap values finished this iteration
        oh = p.pipeline_overhead
        return IterationTiming(
            t_cmem=float(t_cmem),
            t_issue=(moves + macs) * p.issue_cost * oh,
            t_acc=macs * p.acc_cost * oh,
            t_aux=completed * p.aux_cost * oh,
            t_ofmap_send=completed * p.ofmap_send_cost * oh,
            t_loop=p.loop_cost * oh,
            t_forward=n * sub_vectors * p.ifmap_forward_cost + p.handshake_cost,
            macs_per_iteration=macs,
            overlap=p.overlap,
        )

    def dc_timing(self, spec: ConvLayerSpec, *, from_dram: bool) -> DCTiming:
        """Breakdown of one DC-core iteration (fetch + transpose + send)."""
        p = self.params
        sub_vectors = max(1, math.ceil(spec.c / self.capacity.cols))
        # The DC writes a full 256-lane row group per sub-vector (packing
        # replicates short vectors across the lanes); vertical stores are
        # byte-granular (Fig. 5), costing a load+store+increment each.
        bytes_written = self.capacity.cols * sub_vectors
        fetch = spec.c * p.dram_fetch_cost_per_byte if from_dram else 0.0
        return DCTiming(
            t_fetch=fetch,
            t_transpose=bytes_written * p.transpose_byte_cost,
            t_send=spec.n_bits * sub_vectors * p.ifmap_forward_cost,
            t_overhead=p.dc_overhead,
        )

    # -- per-layer -------------------------------------------------------------

    def required_iterations(self, spec: ConvLayerSpec) -> int:
        """Ifmap vectors the DC must stream for one inference.

        One per ifmap pixel some output window reads
        (:attr:`~repro.nn.workloads.ConvLayerSpec.streamed_hw`): all of
        them when windows overlap or abut, only the sampled subgrid when
        the stride outruns the kernel (1x1 shortcuts).  Raises
        :class:`~repro.errors.MappingError` when there are none: then every
        window along an axis covers only padding, and no tier can time or
        simulate the layer.  Every tier times its layers through here
        before it simulates them.
        """
        rows, cols = spec.streamed_hw
        if not rows or not cols:
            raise MappingError(
                f"{spec.name}: every window along one axis covers only "
                f"padding, so the layer streams no ifmap vector"
            )
        return len(rows) * len(cols)

    def layer_timing(
        self, spec: ConvLayerSpec, computing_nodes: int, *, from_dram: bool = False
    ) -> LayerTiming:
        iteration = self.iteration_timing(spec, computing_nodes)
        dc = self.dc_timing(spec, from_dram=from_dram)
        fill_per_hop = (
            spec.n_bits * self.params.ifmap_forward_cost
            + self.params.handshake_cost
            + self.params.hop_latency
        )
        return LayerTiming(
            spec=spec,
            computing_nodes=computing_nodes,
            iteration=iteration,
            dc=dc,
            iterations=self.required_iterations(spec),
            fill_per_hop=fill_per_hop,
        )

    def layer_time_fn(self, *, from_dram: bool = False):
        """Adapter matching :data:`repro.mapping.allocation.TimingFn`."""

        def timing(spec: ConvLayerSpec, computing_nodes: int) -> float:
            return self.layer_timing(
                spec, computing_nodes, from_dram=from_dram
            ).standalone_cycles

        return timing


def start_offsets(layer_timings: Sequence[LayerTiming]) -> List[float]:
    """Start cycle of every layer of one pipelined segment (Sec. 4.2).

    Layer ``l+1`` starts once layer ``l`` has produced ``R`` ofmap rows
    (Fig. 7(a)); every layer then streams at its own interval, so the
    segment finishes when its last layer drains.  Filter loading is not
    part of this roll-up: the backends bill it once, as
    :func:`repro.sim.accounting.exposed_filter_load_cycles`.
    """
    if not layer_timings:
        raise MappingError("segment with no layers")
    offsets: List[float] = []
    start = 0.0
    for i, lt in enumerate(layer_timings):
        if i > 0:
            prev = layer_timings[i - 1]
            # Rows of the previous layer's ofmap needed before this
            # layer can start, produced at the previous layer's rate.
            rows_needed = lt.spec.r
            vectors = rows_needed * prev.spec.ofmap_hw[1]
            start = offsets[i - 1] + prev.fill + vectors * prev.interval
        offsets.append(start)
    return offsets
