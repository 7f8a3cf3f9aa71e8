"""Event-driven segment simulation at (core, vector) granularity.

The production streaming model (:mod:`repro.core.streaming`) collapses
each layer's chain into a single pipelined station — fast, but an
approximation.  This module simulates every core of every chain as its
own station, so that the tandem-queue model's totals can be
cross-checked against a per-core simulation (see
``tests/core/test_event_streaming.py`` and :mod:`repro.sim.xcheck`).
Both tiers read which producer vector unblocks each consumer vector from
the one :func:`repro.core.streaming.dependence_map`.

A computing core forwards each ifmap vector *eagerly*: ``t_forward``
after it starts computing with it, since StoreRow.RC only reads slice 0,
rather than after the MAC block as Algorithm 1 lists it.

:meth:`EventDrivenSegmentSimulator.run` is one pass over the segment's
layers in list order: the map only links a layer to an earlier one, so
every producer has finished before its consumers run.  A layer's DC and
each of its computing cores is a serial FIFO station, and
:func:`repro.core.streaming.station_scan` advances all of the layer's
vectors through each with NumPy: a station that never queues returns
its arrivals, and otherwise one pass and one left-to-right
``np.add.accumulate`` per busy run give the floats a per-vector loop
would (see it for why).

The result equals a per-event simulation — one heap callback per
(core, vector) hop, dispatched in (time, schedule seq) order — to the
last bit.  Layers share no stations, so the heap's interleaving across
layers cannot affect any timestamp.  Within a layer every station serves
vectors in (arrival time, schedule seq) order: by arrival, and among
equal arrivals in the order the producer's chain completions released
them, each completion its waiters in consumer-vector order.  A stable
sort on the arrivals alone reproduces that order, because every layer
has at least one computing core with a positive iteration time (the
simulator rejects any other timing; the Eq. (1) model never builds one,
since ``filters_held`` rejects zero cores and ``t_cmem >= n_bits``).
The last core of a chain then serves the vectors in DC order and starts
each at least one iteration after the one before, so the chain
completes them in strictly increasing time.  Equal arrivals therefore
share one source vector, and the stable sort keeps them in
consumer-vector order.  That per-event engine is kept in
``tests/core/test_event_vectorized.py`` as the ``==`` oracle of this
one, on drawn segments and timings, zero-cycle DC stations included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.perfmodel import LayerTiming
from repro.core.streaming import dependence_map, station_scan
from repro.errors import SimulationError


@dataclass
class EventSegmentResult:
    """Outcome of one event-driven segment run."""

    total_cycles: float
    layer_finish: Dict[int, float] = field(default_factory=dict)
    #: (core, vector) hops simulated: one per vector at the DC and one
    #: per vector at each computing core.
    events_processed: int = 0
    #: Back-to-back request streams simulated (weight-stationary batching).
    requests: int = 1


class EventDrivenSegmentSimulator:
    """Per-core, per-vector discrete-event simulation of one segment.

    ``requests`` streams that many back-to-back input samples through the
    same stationary weights (weight-stationary request batching): every
    layer processes ``requests * iterations`` vectors, with request ``r``'s
    consumer vectors depending on request ``r``'s producer vectors.  The
    default ``requests=1`` path is byte-identical to the historical
    single-request engine.
    """

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
        for lt in timings:
            # The arrival order of every consumer rests on both (see the
            # module docstring).
            if lt.computing_nodes < 1 or not lt.iteration.total > 0:
                raise SimulationError(
                    f"layer {lt.spec.name!r}: the event tier needs at least "
                    f"one computing core and a positive iteration time, got "
                    f"{lt.computing_nodes} cores of {lt.iteration.total} cycles"
                )
        self.timings = list(timings)
        self.requests = requests

    def run(self) -> EventSegmentResult:
        """Every (core, vector) hop of the segment, one layer at a time."""
        timings = self.timings
        requests = self.requests
        hop = timings[0].fill_per_hop
        producer_of, sources = dependence_map(timings, requests)

        # Per finished layer, indexed by vector id (request-major): when
        # its chain completed.
        chain_done: List[np.ndarray] = []
        finish: List[float] = []
        hops = 0
        for li, lt in enumerate(timings):
            total = lt.iterations * requests
            pj = producer_of[li]
            if pj is None:
                # Source layer: all vectors stream from DRAM at t=0 and
                # enter the DC in (request, vector) order.
                arrivals = np.zeros(total)
            else:
                # Same float op the per-event engine applies per waiter.
                arrivals = chain_done[pj][sources[li]] + hop
            # Service order: by arrival, equal arrivals by vector id.
            order = np.argsort(arrivals, kind="stable")
            # DC: a serial FIFO station over the ordered arrivals.
            dc_start = station_scan(arrivals[order], lt.dc.total)
            nodes = lt.computing_nodes
            t_iter = lt.iteration.total
            t_forward = lt.iteration.t_forward
            incoming = (dc_start + lt.dc.total) + hop
            for k in range(nodes):
                starts = station_scan(incoming, t_iter)
                if k + 1 < nodes:
                    incoming = (starts + t_forward) + hop
            layer_done = starts + t_iter
            # Map service order back to vector ids.
            by_vector = np.empty(total)
            by_vector[order] = layer_done
            chain_done.append(by_vector)
            finish.append(float(np.max(layer_done)))
            hops += total * (1 + nodes)
        return EventSegmentResult(
            total_cycles=max(finish),
            layer_finish={
                lt.spec.index: finish[li] for li, lt in enumerate(timings)
            },
            events_processed=hops,
            requests=requests,
        )
