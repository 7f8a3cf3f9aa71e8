"""Iteration-granularity simulation of a mapped segment (Sec. 4.2).

Each layer is a pipelined station: a data-collection core feeding a chain
of computing cores.  Vectors flow station to station; station ``l+1``'s
vector ``v`` becomes available when station ``l`` has pushed the ifmap
vector that *completes* the corresponding ofmap pixel through its whole
chain (all output channels live on different cores of the chain).

The simulator advances one vector at a time per layer with a tandem-queue
recurrence — capturing pipeline fill, inter-layer rate mismatches (the
greedy strategy's failure mode), and the per-iteration waiting that
Fig. 9 visualizes — while per-iteration *work* comes from the Eq. (1)
breakdown of :mod:`repro.core.perfmodel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.perfmodel import LayerTiming
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec


@dataclass
class CoreBreakdown:
    """Per-iteration cycle breakdown of an intermediate computing core."""

    layer_index: int
    compute: float        # CMem-visible compute (or scalar, whichever binds)
    send_ifmap: float
    send_ofmap: float
    wait_ifmap: float
    other: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute": self.compute,
            "send_ifmap": self.send_ifmap,
            "send_ofmap": self.send_ofmap,
            "wait_ifmap": self.wait_ifmap,
            "other": self.other,
        }

    @property
    def total(self) -> float:
        return sum(self.as_dict().values())


@dataclass
class LayerFlow:
    """Observed flow of one layer during a segment run."""

    spec: ConvLayerSpec
    start: float
    finish: float
    iterations: int
    total_wait: float
    interval_work: float  # per-iteration busy time from the model

    @property
    def observed_interval(self) -> float:
        return (self.finish - self.start) / max(1, self.iterations)

    @property
    def mean_wait(self) -> float:
        return self.total_wait / max(1, self.iterations)


@dataclass
class SegmentResult:
    total_cycles: float
    flows: List[LayerFlow] = field(default_factory=list)

    def flow_of(self, layer_index: int) -> LayerFlow:
        for flow in self.flows:
            if flow.spec.index == layer_index:
                return flow
        raise SimulationError(f"no flow recorded for layer {layer_index}")


def completion_source_index(
    producer: ConvLayerSpec, oy: int, ox: int
) -> int:
    """Producer ifmap-vector index that completes ofmap pixel ``(oy, ox)``.

    An ofmap pixel of a stride/padding convolution is computable as soon
    as the *last* ifmap vector its receptive field touches has arrived —
    the bottom-right corner of the ``r x s`` window, clamped to the ifmap
    edge when padding hangs the window past it.  Vectors arrive in raster
    order, so the returned flat index (``y * w + x``) is also the arrival
    rank of that vector.

    This is the producer→consumer dependence both streaming tiers key
    on: the tandem-queue :class:`SegmentSimulator` uses it to compute
    per-vector readiness times, and the event-driven tier
    (:mod:`repro.core.event_streaming`) uses it to decide which forwarded
    vector unblocks each downstream compute.  Keeping them on one helper
    is what makes their agreement (``repro.sim.xcheck``) evidence about
    the *queueing* models, not about dependence bookkeeping.
    """
    y = min(producer.h - 1, oy * producer.stride - producer.padding + producer.r - 1)
    x = min(producer.w - 1, ox * producer.stride - producer.padding + producer.s - 1)
    return y * producer.w + x


class SegmentSimulator:
    """Simulates one segment of chained node groups."""

    def __init__(
        self,
        timings: Sequence[LayerTiming],
        *,
        first_from_dram: bool = True,
        requests: int = 1,
    ) -> None:
        if not timings:
            raise SimulationError("empty segment")
        if requests < 1:
            raise SimulationError(f"requests must be >= 1, got {requests}")
        self.timings = list(timings)
        self.first_from_dram = first_from_dram
        #: Weight-stationary request batching: stream this many request
        #: copies back to back through the resident weights.  Vector ids
        #: are request-major (request ``r``'s vector ``v`` is
        #: ``r * iterations + v``); every station serves all requests
        #: with no re-staging between them, so ``requests=1`` is the
        #: historical single-sample run, bit for bit.
        self.requests = requests

    def _find_producer(
        self,
        spec: ConvLayerSpec,
        history: List,
    ) -> Optional[tuple]:
        """Nearest preceding layer whose ofmap matches this ifmap.

        Segments are stored as layer lists but the underlying graph is a
        DAG (downsample shortcuts consume the block input, not the previous
        list entry), so the producer is matched by feature-map geometry.
        """
        for prev_spec, departures in reversed(history):
            if prev_spec.ofmap_hw == (spec.h, spec.w):
                return prev_spec, departures
        return None

    def run(self) -> SegmentResult:
        result = SegmentResult(total_cycles=0.0)
        # (spec, per-vector chain-departure times) of every finished layer.
        history: List = []
        requests = self.requests
        for lt in self.timings:
            spec = lt.spec
            iterations = lt.iterations
            total = iterations * requests
            interval = lt.interval
            producer = self._find_producer(spec, history)
            # Arrival times of this layer's vectors at its DC
            # (request-major when streaming a request batch).
            if producer is None:
                arrivals = np.zeros(total)
            else:
                prev_spec, prev_departures = producer
                prev_iterations = len(prev_departures) // requests
                oh, ow = prev_spec.ofmap_hw
                # Consumer vector v corresponds to producer ofmap pixel v
                # (identical tensor raster); it departs the producer once
                # the completing ifmap vector has cleared the whole chain.
                arrivals = np.empty(total)
                # Consumers with stride-subsampled input (1x1 shortcuts)
                # read a regular subgrid of the producer's ofmap.
                step = int(round(math.sqrt(oh * ow / iterations))) or 1
                for r in range(requests):
                    base = r * iterations
                    offset = r * prev_iterations
                    v = 0
                    for oy in range(0, oh, step):
                        for ox in range(0, ow, step):
                            if v >= iterations:
                                break
                            src = completion_source_index(prev_spec, oy, ox)
                            # Guard for producers that streamed a subgrid
                            # of their ifmap (1x1 stride-2 shortcuts).
                            src = min(src, prev_iterations - 1)
                            arrivals[base + v] = (
                                prev_departures[offset + src] + lt.fill_per_hop
                            )
                            v += 1
                    if v < iterations:
                        arrivals[base + v:base + iterations] = (
                            arrivals[base + v - 1] if v else 0.0
                        )
            # Tandem queue through this layer: DC + chain.  The station
            # stays busy across request boundaries (weights resident).
            departures = np.empty(total)
            t = 0.0
            wait = 0.0
            for v in range(total):
                ready = arrivals[v]
                start = max(ready, t)
                wait += max(0.0, ready - t)
                t = start + interval
                departures[v] = t + lt.fill  # clears the whole chain
            flow = LayerFlow(
                spec=spec,
                start=float(arrivals[0]),
                finish=float(departures[-1]),
                iterations=total,
                total_wait=float(wait),
                interval_work=interval,
            )
            result.flows.append(flow)
            history.append((spec, departures))
        result.total_cycles = max(flow.finish for flow in result.flows)
        return result

    # -- Fig. 9 --------------------------------------------------------------

    def core_breakdown(
        self, layer_index: int, result: Optional[SegmentResult] = None
    ) -> CoreBreakdown:
        """Per-iteration breakdown of an intermediate core of one layer."""
        if result is None:
            result = self.run()
        lt = next(t for t in self.timings if t.spec.index == layer_index)
        flow = result.flow_of(layer_index)
        it = lt.iteration
        compute = max(it.t_cmem, it.t_issue + it.t_acc)
        observed = flow.observed_interval
        accounted = compute + it.t_forward + it.t_ofmap_send + it.t_aux + it.t_loop
        wait = flow.mean_wait + max(0.0, observed - accounted - flow.mean_wait)
        return CoreBreakdown(
            layer_index=layer_index,
            compute=compute,
            send_ifmap=it.t_forward,
            send_ofmap=it.t_ofmap_send,
            wait_ifmap=wait,
            other=it.t_aux + it.t_loop,
        )
