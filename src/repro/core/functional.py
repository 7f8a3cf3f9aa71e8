"""Functional multi-node execution of layers and whole networks.

Two fidelity levels, selected per layer:

* **bit-true** — every computing core owns a real :class:`~repro.cmem.cmem.CMem`;
  the DC transposes each ifmap vector through slice 0, rows are forwarded
  core-to-core exactly as LoadRow.RC/StoreRow.RC would, and every MAC is a
  real bit-line computation.  Tractable for small layers; used by the
  end-to-end correctness tests.
* **fast** — the same layer on the same node allocation, computed in
  NumPy: the accumulators come from one contraction per filter tap (and
  cache-sized block of filters) over every ofmap pixel the tap reaches,
  and the operation counts (vectors streamed, row transfers, per-core
  MAC.Cs) from closed forms over the same tap ranges.  Weights and
  ifmap keep the caller's integer dtype (int8 at the paper's design
  point) up to the contractions, which run on float64 BLAS through
  :func:`~repro.utils.fixedpoint.exact_matmul`: exact while
  ``max|w| * max|x| * C < 2**53``, proved from the dtypes alone for
  int8 and int16 operands, and raising past it; integer sums do not
  depend on order, so both equal what the per-vector streaming would
  produce.  Used for ResNet18-scale functional runs.

Either way the result must equal the quantized reference engine exactly.

:func:`network_spec_of` hands the same mapped layers to the chip-level
simulators (:func:`repro.sim.simulate`): both it and
:func:`simulate_quantized_graph` derive each conv/FC node's
:class:`~repro.nn.workloads.ConvLayerSpec` through one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cmem.cmem import CMem, CMemStats
from repro.core.datalayout import (
    load_filters_into_cmem,
    plan_node_layout,
    split_filters_across_nodes,
)
from repro.errors import ConfigurationError, MappingError
from repro.mapping.capacity import CapacityModel
from repro.nn.layers import conv2d_output_hw
from repro.nn.quantize import (
    QAvgPool2d,
    QConv2d,
    QFlatten,
    QInput,
    QLinear,
    QMaxPool2d,
    QuantizedGraph,
)
from repro.nn.workloads import ConvLayerSpec, NetworkSpec
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.telemetry.hooks import publish_stats, stats_delta
from repro.utils.fixedpoint import EXACT_BLOCK, exact_matmul, requantize


@dataclass
class GroupRunStats:
    """Operation counts of one layer's node-group execution."""

    vectors_streamed: int = 0
    row_transfers: int = 0
    macs: int = 0
    cmem_energy_pj: float = 0.0


def bit_true_min_nodes(spec: ConvLayerSpec, capacity: CapacityModel) -> int:
    """Minimum computing cores for the unpacked (bit-true) layout.

    Whole filters per node (no lane packing, no filter splitting), so each
    node's slot demand is guaranteed to fit its CMem.
    """
    sub_vectors = max(1, math.ceil(spec.c / capacity.cols))
    slots_per_filter = spec.r * spec.s * sub_vectors
    fpn = capacity.total_vector_slots(spec.n_bits) // slots_per_filter
    if fpn < 1:
        raise ConfigurationError(
            f"{spec.name}: one filter does not fit a node without packing"
        )
    return max(1, math.ceil(spec.m / fpn))


def _integer_operand(what: str, values: np.ndarray) -> np.ndarray:
    """``values`` as an array of its own integer dtype; anything else, a
    float that would truncate included, is a :class:`ConfigurationError`."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise ConfigurationError(f"{what} must be integers, got {array.dtype}")
    return array


def _tap_span(
    offset: int, size: int, out: int, stride: int, padding: int
) -> Tuple[slice, slice]:
    """Where a filter tap at ``offset`` lands along one axis.

    Ofmap index ``o`` reads ifmap index ``o*stride + offset - padding``;
    returns the contiguous ofmap slice whose reads fall inside the
    ``size`` ifmap indices, and the strided ifmap slice they read.
    """
    shift = offset - padding
    lo = max(0, -(shift // stride))
    hi = max(lo, min(out, (size - 1 - shift) // stride + 1))
    return slice(lo, hi), slice(lo * stride + shift, hi * stride + shift, stride)


def _layer_spec(
    name: str, layer: Union[QConv2d, QLinear], in_shape: Tuple[int, ...], index: int
) -> ConvLayerSpec:
    """The mapped layer a conv or FC node runs as, given its input shape.

    An FC layer maps as a 1x1 convolution over a 1x1 ifmap holding its
    flattened input, which is how the node groups run it.
    """
    if isinstance(layer, QConv2d):
        m, c, r, s = layer.weight_q.shape
        return ConvLayerSpec(
            index=index, name=name, h=in_shape[1], w=in_shape[2], c=c, m=m,
            r=r, s=s, stride=layer.stride, padding=layer.padding,
            n_bits=layer.n_bits,
        )
    return ConvLayerSpec(
        index=index, name=name, h=1, w=1, c=math.prod(in_shape),
        m=layer.weight_q.shape[0], r=1, s=1, padding=0, kind="linear",
        n_bits=layer.n_bits,
    )


def network_spec_of(qgraph: QuantizedGraph, name: str = "model") -> NetworkSpec:
    """The mapped layers of a quantized graph, as the chip simulators take them.

    Conv and FC nodes become mapped layers in topological order, each the
    spec :func:`simulate_quantized_graph` runs it under; auxiliary nodes
    (ReLU, pooling, adds) run on the scalar cores and only carry the
    activation shape forward.
    """
    shapes: Dict[str, Tuple[int, ...]] = {}
    layers: List[ConvLayerSpec] = []
    for node_name in qgraph.order:
        node = qgraph.nodes[node_name]
        layer = node.layer
        if isinstance(layer, QInput):
            shapes[node_name] = tuple(layer.shape)
            continue
        in_shape = shapes[node.inputs[0]]
        if isinstance(layer, (QConv2d, QLinear)):
            spec = _layer_spec(node_name, layer, in_shape, len(layers) + 1)
            layers.append(spec)
            shapes[node_name] = (
                (spec.m, *spec.ofmap_hw) if spec.kind == "conv" else (spec.m,)
            )
        elif isinstance(layer, (QMaxPool2d, QAvgPool2d)):
            pool = layer.pool if isinstance(layer, QMaxPool2d) else layer
            c, h, w = in_shape
            shapes[node_name] = (c, *conv2d_output_hw(
                h, w, pool.kernel, pool.kernel, pool.stride, pool.padding
            ))
        elif isinstance(layer, QFlatten):
            shapes[node_name] = (math.prod(in_shape),)
        else:
            shapes[node_name] = in_shape
    if not layers:
        raise MappingError("the model contains no mappable conv/FC layers")
    return NetworkSpec(name=name, layers=tuple(layers))


class FunctionalNodeGroup:
    """One layer on a DC + chain of computing cores.

    Weights ``(m, c, r, s)``, bias ``(m,)`` and the ifmap given to
    :meth:`run` must be integer arrays of those shapes; a float or
    misshapen operand raises :class:`ConfigurationError`.
    """

    def __init__(
        self,
        spec: ConvLayerSpec,
        weights: np.ndarray,
        bias: np.ndarray,
        num_computing: int,
        *,
        bit_true: bool = False,
        capacity: Optional[CapacityModel] = None,
        telemetry: Optional[TelemetrySink] = None,
    ) -> None:
        self.spec = spec
        self.weights = _integer_operand("weights", weights)
        if self.weights.shape != (spec.m, spec.c, spec.r, spec.s):
            raise ConfigurationError(
                f"weights shape {self.weights.shape} != "
                f"({spec.m}, {spec.c}, {spec.r}, {spec.s})"
            )
        self.bias = _integer_operand("bias", bias).astype(np.int64)
        if self.bias.shape != (spec.m,):
            raise ConfigurationError(f"bias shape {self.bias.shape} != ({spec.m},)")
        self.num_computing = num_computing
        self.bit_true = bit_true
        self.capacity = capacity or CapacityModel()
        self.stats = GroupRunStats()
        self.telemetry = telemetry if telemetry is not None else _current_telemetry()
        # Per-node MAC tally (both paths), for per-core telemetry tracks.
        self._node_macs: List[int] = [0] * num_computing
        self.ranges = split_filters_across_nodes(spec.m, num_computing)
        if bit_true:
            if spec.c > self.capacity.cols:
                raise ConfigurationError(
                    "bit-true groups support C <= 256; use fast mode above"
                )
            self._nodes = []
            for k, (start, count) in enumerate(self.ranges):
                if count == 0:
                    self._nodes.append(None)
                    continue
                node_spec = ConvLayerSpec(
                    index=spec.index, name=spec.name, h=spec.h, w=spec.w,
                    c=spec.c, m=count, r=spec.r, s=spec.s,
                    stride=spec.stride, padding=spec.padding, n_bits=spec.n_bits,
                )
                layout = plan_node_layout(node_spec, count, self.capacity)
                cmem = CMem(telemetry=self.telemetry, track=f"core/{k}/cmem")
                load_filters_into_cmem(
                    cmem, layout, self.weights[start : start + count]
                )
                for s_idx in layout.slices_used:
                    cmem.slice(s_idx).csr_mask = layout.csr_mask
                self._nodes.append((node_spec, layout, cmem))

    # -- bit-true path ------------------------------------------------------------

    def _run_bit_true(self, q_in: np.ndarray) -> np.ndarray:
        spec = self.spec
        n = spec.n_bits
        oh, ow = spec.ofmap_hw
        acc = np.zeros((spec.m, oh, ow), dtype=np.int64)
        acc += self.bias[:, None, None]
        # DC CMem: slice 0 transposes.
        dc_buffer = CMem(telemetry=self.telemetry, track="dc/slice0")
        for y in range(spec.h):
            for x in range(spec.w):
                vector = q_in[:, y, x]
                # DC: vertical byte writes into slice 0, then row reads.
                dc_buffer.slice0.store_vector(0, vector, n)
                rows = [dc_buffer.slice0.read_row(r) for r in range(n)]
                self.stats.vectors_streamed += 1
                for k, (node, (start, count)) in enumerate(
                    zip(self._nodes, self.ranges)
                ):
                    if node is None:
                        continue
                    node_spec, layout, cmem = node
                    # LoadRow.RC x N: the vector lands in slice 0.
                    for r, row_bits in enumerate(rows):
                        cmem.write_row(0, r, row_bits)
                        self.stats.row_transfers += 1
                    # Broadcast and MAC (Algorithm 1).  Entries that fire at
                    # this pixel are grouped per slice so the whole slice's
                    # filters go through one batched ``mac_many`` — the
                    # cycle/energy charges are per weight row either way.
                    for s_idx in layout.slices_used:
                        cmem.move(0, 0, s_idx, 0, n)
                    by_slice: Dict[int, list] = {}
                    for entry in layout.entries:
                        oy_num = y + spec.padding - entry.fr
                        ox_num = x + spec.padding - entry.fs
                        if oy_num % spec.stride or ox_num % spec.stride:
                            continue
                        oy, ox = oy_num // spec.stride, ox_num // spec.stride
                        if not (0 <= oy < oh and 0 <= ox < ow):
                            continue
                        by_slice.setdefault(entry.slice_index, []).append(
                            (entry, oy, ox)
                        )
                    for s_idx, fired in by_slice.items():
                        psums = cmem.mac_many(
                            s_idx, 0, [e.row for e, _, _ in fired], n, signed=True
                        )
                        self.stats.macs += len(fired)
                        self._node_macs[k] += len(fired)
                        for (entry, oy, ox), psum in zip(fired, psums):
                            acc[start + entry.filter_index, oy, ox] += int(psum)
        for node in self._nodes:
            if node is not None:
                self.stats.cmem_energy_pj += node[2].energy.total_pj
        return acc

    # -- fast path -------------------------------------------------------------------

    def _run_fast(self, q_in: np.ndarray) -> np.ndarray:
        spec = self.spec
        oh, ow = spec.ofmap_hw
        sub_vectors = max(1, math.ceil(spec.c / self.capacity.cols))
        acc = np.zeros((spec.m, oh, ow), dtype=np.int64)
        acc += self.bias[:, None, None]
        # Tap (fr, fs) meets a strided block of ifmap pixels at a contiguous
        # block of ofmap pixels, so one contraction adds it into a block of
        # filters at once.
        taps = []
        reached = 0
        for fr in range(spec.r):
            oys, ys = _tap_span(fr, spec.h, oh, spec.stride, spec.padding)
            for fs in range(spec.s):
                oxs, xs = _tap_span(fs, spec.w, ow, spec.stride, spec.padding)
                reach = (oys.stop - oys.start) * (oxs.stop - oxs.start)
                if reach:
                    patch = q_in[:, ys, xs].reshape(spec.c, reach)
                    taps.append((fr, fs, oys, oxs, patch))
                    reached += reach
        # Filters go in blocks of at most EXACT_BLOCK weights, which stay in
        # cache across the block's taps: a tap's weights are a strided slice,
        # so tap-major order over all filters would read each weight's cache
        # line once per tap.
        step = max(1, EXACT_BLOCK // (spec.c * spec.r * spec.s))
        for lo in range(0, spec.m, step):
            block = self.weights[lo : lo + step]
            for fr, fs, oys, oxs, patch in taps:
                out = acc[lo : lo + step, oys, oxs]
                out += exact_matmul(block[:, :, fr, fs], patch).reshape(out.shape)
        # Every ifmap vector is sent down the chain once; each core holding
        # a filter loads it as n_bits rows per 256-lane sub-vector and
        # issues one MAC.C per held filter, sub-vector and reached tap.
        pixels = spec.h * spec.w
        active = sum(1 for _, count in self.ranges if count)
        self.stats.vectors_streamed += pixels
        self.stats.row_transfers += pixels * active * spec.n_bits * sub_vectors
        for k, (_, count) in enumerate(self.ranges):
            self._node_macs[k] += count * sub_vectors * reached
            self.stats.macs += count * sub_vectors * reached
        return acc

    def run(self, q_in: np.ndarray) -> np.ndarray:
        """Stream the quantized ifmap through the group; returns int64 acc.

        The ifmap and weights stay in their own integer dtype (int8 at the
        paper's design point) all the way to the contractions.
        """
        q_in = _integer_operand("ifmap", q_in)
        if q_in.shape != (self.spec.c, self.spec.h, self.spec.w):
            raise ConfigurationError(
                f"ifmap shape {q_in.shape} != "
                f"({self.spec.c}, {self.spec.h}, {self.spec.w})"
            )
        telemetry = self.telemetry
        if not telemetry.enabled:
            if self.bit_true:
                return self._run_bit_true(q_in)
            return self._run_fast(q_in)
        # Snapshot cumulative tallies so only *this* run is published.
        group_before = replace(self.stats)
        node_macs_before = list(self._node_macs)
        cmem_before = [
            replace(node[2].stats) if node is not None else None
            for node in (self._nodes if self.bit_true else [])
        ]
        acc = self._run_bit_true(q_in) if self.bit_true else self._run_fast(q_in)
        self._publish_run(group_before, node_macs_before, cmem_before)
        return acc

    def _publish_run(
        self,
        group_before: GroupRunStats,
        node_macs_before: List[int],
        cmem_before: List[Optional[CMemStats]],
    ) -> None:
        """Publish this run's deltas: registry counters + layer/core spans.

        The trace clock is simulation-derived and deterministic: CMem busy
        cycles in bit-true mode, MAC counts (one logical tick per MAC.C
        the hardware would issue) in fast mode.  Spans start at each
        track's cursor so consecutive layers stack sequentially.
        """
        telemetry = self.telemetry
        assert telemetry.registry is not None and telemetry.trace is not None
        trace = telemetry.trace
        spec = self.spec
        delta = stats_delta(self.stats, group_before)
        publish_stats(telemetry, f"group/{spec.name}", delta)
        durations: List[int] = []
        for k in range(self.num_computing):
            if self.bit_true:
                node = self._nodes[k]
                if node is None:
                    continue
                before = cmem_before[k]
                assert before is not None
                cmem_delta = stats_delta(node[2].stats, before)
                publish_stats(telemetry, f"core/{k}/cmem", cmem_delta)
                dur = cmem_delta.busy_cycles
            else:
                dur = self._node_macs[k] - node_macs_before[k]
                if dur == 0:
                    continue
            durations.append(dur)
            track = f"core/{k}"
            trace.complete(
                track, spec.name, trace.cursor(track), dur,
                args={"macs": self._node_macs[k] - node_macs_before[k]},
            )
        layer_track = f"layer/{spec.name}"
        trace.complete(
            layer_track,
            spec.name,
            trace.cursor(layer_track),
            max(durations, default=0),
            args={
                "vectors": delta.vectors_streamed,
                "row_transfers": delta.row_transfers,
                "macs": delta.macs,
                "nodes": self.num_computing,
                "clock": "cmem_busy_cycles" if self.bit_true else "macs",
            },
        )


def simulate_quantized_graph(
    qgraph: QuantizedGraph,
    x: np.ndarray,
    *,
    nodes_per_layer: Optional[Dict[str, int]] = None,
    bit_true: bool = False,
    capacity: Optional[CapacityModel] = None,
    telemetry: Optional[TelemetrySink] = None,
) -> Dict[str, np.ndarray]:
    """Run a quantized network with every conv/FC on a functional node group.

    Auxiliary layers (ReLU, pooling, residual add, requantization) execute
    through the same integer routines the scalar cores implement.  The
    returned activations must equal ``qgraph.forward(x)`` exactly.
    """
    capacity = capacity or CapacityModel()
    nodes_per_layer = nodes_per_layer or {}
    telemetry = telemetry if telemetry is not None else _current_telemetry()
    acts: Dict[str, np.ndarray] = {}
    mapped = 0
    for name in qgraph.order:
        node = qgraph.nodes[name]
        layer = node.layer
        if isinstance(layer, QInput):
            acts[name] = layer.forward(x)
        elif isinstance(layer, (QConv2d, QLinear)):
            q_in = acts[node.inputs[0]]
            mapped += 1
            spec = _layer_spec(name, layer, q_in.shape, mapped)
            default = (
                bit_true_min_nodes(spec, capacity)
                if bit_true
                else capacity.min_nodes(spec, max_nodes=spec.m)
            )
            group = FunctionalNodeGroup(
                spec,
                layer.weight_q.reshape(spec.m, spec.c, spec.r, spec.s),
                layer.bias_q,
                nodes_per_layer.get(name, default),
                bit_true=bit_true,
                capacity=capacity,
                telemetry=telemetry,
            )
            if spec.kind == "linear":
                acc = group.run(q_in.reshape(spec.c, 1, 1)).reshape(spec.m)
            else:
                acc = group.run(q_in)
            acts[name] = requantize(acc, layer.requant_ratio, layer.n_bits)
        else:
            acts[name] = layer.forward(*[acts[i] for i in node.inputs])
    return acts
