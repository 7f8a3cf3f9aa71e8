"""Iteration-granularity simulation of a mapped segment (Sec. 4.2).

Each layer is a pipelined station: a data-collection core feeding a chain
of computing cores.  Vectors flow station to station; station ``l+1``'s
vector ``v`` becomes available when station ``l`` has pushed the ifmap
vector that *completes* the corresponding ofmap pixel through its whole
chain (all output channels live on different cores of the chain).

The simulator advances every vector of a layer through a tandem-queue
recurrence — capturing pipeline fill, inter-layer rate mismatches (the
greedy strategy's failure mode), and the per-iteration waiting that
Fig. 9 visualizes — while per-iteration *work* comes from the Eq. (1)
breakdown of :mod:`repro.core.perfmodel`.  A run reports one
:class:`LayerReport` per layer, the per-layer record every simulation
tier shares (:class:`repro.sim.SegmentReport` carries them).

Two helpers here are shared with the event-driven tier
(:mod:`repro.core.event_streaming`): :func:`dependence_map`, which
vector of the producer unblocks each consumer vector, and
:func:`station_scan`, the FIFO recurrence of one station evaluated with
NumPy and no per-vector Python: one pass settles every vector that
queues behind one served on arrival, and each longer busy run is filled
by a left-to-right ``np.add.accumulate``, the same IEEE adds in the same
order as a per-vector loop, so every start time is that loop's float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.perfmodel import LayerTiming
from repro.errors import SimulationError


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
class LayerReport:
    """One layer's observed (or modeled) flow through its node group.

    The per-layer record of every simulation tier: the streaming tier
    fills it directly, and :class:`repro.sim.SegmentReport` carries one
    per layer whatever the tier.
    """

    index: int
    name: str
    computing_nodes: int
    iterations: int
    interval_work: float     # per-iteration busy time from the Eq. (1) model
    start: float             # first vector available at the layer's DC
    finish: float            # last vector cleared the whole chain
    total_wait: float = 0.0  # cycles the station idled waiting for input

    @property
    def observed_interval(self) -> float:
        return (self.finish - self.start) / max(1, self.iterations)

    @property
    def mean_wait(self) -> float:
        return self.total_wait / max(1, self.iterations)

    def as_dict(self) -> Dict[str, float]:
        return {
            "index": self.index,
            "name": self.name,
            "computing_nodes": self.computing_nodes,
            "iterations": self.iterations,
            "interval_work": self.interval_work,
            "start": self.start,
            "finish": self.finish,
            "total_wait": self.total_wait,
        }


def dependence_map(
    timings: Sequence[LayerTiming], requests: int = 1
) -> Tuple[List[Optional[int]], List[Optional[np.ndarray]]]:
    """Producer index and per-vector source array of every layer.

    ``producer_of[li]`` is the nearest preceding layer whose ofmap
    geometry matches layer ``li``'s ifmap.  Segments are stored as layer
    lists but the underlying graph is a DAG (downsample shortcuts consume
    the block input, not the previous list entry), so the producer is
    matched by feature-map geometry; a layer with no match (``None``)
    streams from DRAM.

    ``sources[li][v]`` is the producer vector whose chain completion
    makes consumer vector ``v`` available.  Both layers stream the
    ifmap pixels some output window reads, in raster order
    (:attr:`~repro.nn.workloads.ConvLayerSpec.streamed_hw`), so consumer
    vector ``v`` is the ``v``-th such pixel of the producer's ofmap.
    That ofmap pixel is final once the producer has absorbed the last
    ifmap pixel its window reads: the window's bottom-right corner,
    clamped to the ifmap edge when padding hangs the window past it.
    The source is that pixel's rank in the producer's own streamed
    order.  Vector ids are request-major: request ``r``'s vector ``v``
    is ``r * iterations + v`` and depends on request ``r``'s producer
    vectors.  Raises :class:`~repro.errors.SimulationError` when a
    consumer needs an ofmap pixel whose window covers only padding,
    since no streamed pixel ever finalizes it.

    Both queueing tiers key on this one map: the tandem-queue
    :class:`SegmentSimulator` computes per-vector readiness times from
    it, and the event-driven tier (:mod:`repro.core.event_streaming`)
    decides which forwarded vector unblocks each downstream compute.
    Keeping them on one map is what makes their agreement
    (``repro.sim.xcheck``) evidence about the *queueing* models, not
    about dependence bookkeeping.
    """
    producer_of: List[Optional[int]] = [None] * len(timings)
    sources: List[Optional[np.ndarray]] = [None] * len(timings)
    for li, lt in enumerate(timings):
        spec = lt.spec
        pj = next(
            (j for j in range(li - 1, -1, -1)
             if timings[j].spec.ofmap_hw == (spec.h, spec.w)),
            None,
        )
        if pj is None:
            continue
        p = timings[pj].spec
        p_rows, p_cols = (np.asarray(axis) for axis in p.streamed_hw)
        rows, cols = (np.asarray(axis) for axis in spec.streamed_hw)
        # First ifmap row and column of each window the consumer needs.
        top = rows * p.stride - p.padding
        left = cols * p.stride - p.padding
        # Windows advance with the consumer's rows and columns, so the
        # first one ends first and the last one starts last.  A window
        # that ends before the ifmap or starts past it reads only
        # padding: no producer vector ever finalizes its pixel.
        if (top[0] + p.r <= 0 or top[-1] >= p.h
                or left[0] + p.s <= 0 or left[-1] >= p.w):
            raise SimulationError(
                f"layer {spec.name!r} reads an ofmap pixel of layer "
                f"{p.name!r} whose window covers only padding; no streamed "
                f"ifmap pixel of {p.name!r} finalizes it"
            )
        # Every other window reads a real pixel, so its clamped corner
        # is one the producer streams.
        row_rank = np.searchsorted(p_rows, np.minimum(p.h - 1, top + p.r - 1))
        col_rank = np.searchsorted(p_cols, np.minimum(p.w - 1, left + p.s - 1))
        src = (row_rank[:, None] * len(p_cols) + col_rank[None, :]).reshape(-1)
        if requests > 1:
            offsets = np.arange(requests) * timings[pj].iterations
            src = (src[None, :] + offsets[:, None]).reshape(-1)
        producer_of[li] = pj
        sources[li] = src
    return producer_of, sources


#: Vectors of a busy run filled per ``np.add.accumulate`` call of
#: :func:`station_scan`.
_RUN_WINDOW = 512


def station_scan(arrivals: np.ndarray, service: float) -> np.ndarray:
    """Service-start times of a FIFO station with a fixed per-vector cost.

    Computes ``start[v] = max(arrivals[v], start[v-1] + service)`` with
    the floats a per-vector loop would produce: the station serves
    vector ``v`` at ``busy`` if ``busy > arrivals[v]``, else on arrival,
    and ``busy`` becomes its start plus ``service``.  The caller's
    ``arrivals`` is never written.

    When no arrival comes before its predecessor's arrival plus
    ``service``, the station never queues and ``start`` is ``arrivals``
    itself.  Otherwise one pass takes ``x[v] = arrivals[v-1] + service``
    where that is later than ``arrivals[v]``: the loop's own choice for a
    vector whose predecessor started on arrival.  IEEE addition is
    monotone, so ``arrivals <= x <= start``, and ``x[v]`` is exact once
    ``x[v-1]`` is and ``x[v-1] + service <= x[v]``.  Every vector still
    wrong lies in a busy run that begins where ``x[b-1] + service >
    x[b]``; the run is filled from the exact ``x[b-1]`` with
    ``np.add.accumulate`` over ``[x[b-1], service, service, ...]``,
    which adds left to right with the loop's ``busy += service``, up to
    the first vector that arrives when the station is free.  That
    vector starts on arrival, where ``x`` already holds it, and ``x`` is
    exact again until the next run begins.
    """
    n = arrivals.size
    if n < 2:
        return arrivals
    ready = arrivals[:-1] + service
    queued = ready > arrivals[1:]
    if not queued[queued.argmax()]:  # argmax: the first queued vector
        return arrivals
    # x: each vector served as if its predecessor started on arrival.
    starts = arrivals.copy()
    np.copyto(starts[1:], ready, where=queued)
    # Vector heads[i] + 1 opens a busy run unless an earlier run covers it.
    heads = (starts[:-1] + service > starts[1:]).nonzero()[0]
    steps = np.empty(_RUN_WINDOW + 1)
    steps[1:] = service
    h = 0
    while h < heads.size:
        v = heads[h] + 1
        steps[0] = starts[v - 1]
        while v < n:
            busy = np.add.accumulate(steps[:n - v + 1])[1:]
            w = busy.size
            waiting = busy > arrivals[v:v + w]
            k = waiting.argmin()
            if not waiting[k]:  # vector v + k finds the station free
                starts[v:v + k] = busy[:k]
                v += k
                break
            starts[v:v + w] = busy
            steps[0] = busy[-1]
            v += w
        h = heads.searchsorted(v)
    return starts


class SegmentSimulator:
    """Simulates one segment of chained node groups."""

    def __init__(
        self,
        timings: Sequence[LayerTiming],
        *,
        requests: int = 1,
    ) -> None:
        if not timings:
            raise SimulationError("empty segment")
        if requests < 1:
            raise SimulationError(f"requests must be >= 1, got {requests}")
        self.timings = list(timings)
        #: Weight-stationary request batching: stream this many request
        #: copies back to back through the resident weights.  Vector ids
        #: are request-major (request ``r``'s vector ``v`` is
        #: ``r * iterations + v``); every station serves all requests
        #: with no re-staging between them, so ``requests=1`` is the
        #: historical single-sample run, bit for bit.
        self.requests = requests

    def run(self) -> List[LayerReport]:
        """Every layer's flow, in segment order; the segment's compute
        cycles are the latest ``finish``."""
        layers: List[LayerReport] = []
        requests = self.requests
        producer_of, sources = dependence_map(self.timings, requests)
        # Per-vector chain-departure times of every finished layer.
        departed: List[np.ndarray] = []
        for li, lt in enumerate(self.timings):
            interval = lt.interval
            src = sources[li]
            # Arrival times of this layer's vectors at its DC
            # (request-major when streaming a request batch): a consumer
            # vector departs the producer once its completing ifmap
            # vector has cleared the whole chain.
            if src is None:
                arrivals = np.zeros(lt.iterations * requests)
            else:
                arrivals = departed[producer_of[li]][src] + lt.fill_per_hop
            # Tandem queue through this layer: DC + chain.  The station
            # stays busy across request boundaries (weights resident).
            starts = station_scan(arrivals, interval)
            departures = (starts + interval) + lt.fill  # clears the whole chain
            # Each vector waits for the station to finish its
            # predecessor (nothing before the first).  cumsum adds left
            # to right, as the recurrence does; np.sum adds pairwise and
            # would change the last bits.
            previous_end = np.concatenate(([0.0], starts[:-1] + interval))
            waits = np.maximum(arrivals - previous_end, 0.0)
            layers.append(LayerReport(
                index=lt.spec.index,
                name=lt.spec.name,
                computing_nodes=lt.computing_nodes,
                iterations=len(arrivals),
                interval_work=interval,
                start=float(arrivals[0]),
                finish=float(departures[-1]),
                total_wait=float(np.cumsum(waits)[-1]),
            ))
            departed.append(departures)
        return layers

    # -- Fig. 9 --------------------------------------------------------------

    def core_breakdown(self, layer_index: int) -> CoreBreakdown:
        """Per-iteration breakdown of an intermediate core of one layer."""
        pos = next(
            (i for i, t in enumerate(self.timings) if t.spec.index == layer_index),
            None,
        )
        if pos is None:
            raise SimulationError(f"layer {layer_index} is not in this segment")
        lt = self.timings[pos]
        flow = self.run()[pos]
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
