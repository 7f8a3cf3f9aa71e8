"""Event-driven segment simulation at (core, vector) granularity.

The production streaming model (:mod:`repro.core.streaming`) collapses
each layer's chain into a single pipelined station — fast, but an
approximation.  This module simulates every core of every chain as its
own actor on the discrete-event kernel, so that the tandem-queue model's
totals can be cross-checked against a per-core simulation (see
``tests/core/test_event_streaming.py`` and :mod:`repro.sim.xcheck`).
Both tiers read which producer vector unblocks each consumer vector from
the one :func:`repro.core.streaming.dependence_map`.

A computing core forwards each ifmap vector *eagerly*: ``t_forward``
after it starts computing with it, since StoreRow.RC only reads slice 0,
rather than after the MAC block as Algorithm 1 lists it.

Two engines produce byte-identical results, and :meth:`run
<EventDrivenSegmentSimulator.run>` picks one from the input:

* **vectorized** — one batched :class:`~repro.utils.events.EventQueue`
  event per layer whose handler advances *all* of the layer's
  (core, vector) hops with NumPy scans.  The per-event heap is collapsed
  into per-station recurrences; see
  :func:`repro.core.streaming.station_scan` for why the float
  evaluation order (and hence every timestamp) is unchanged.  Runs
  whenever every service time is strictly positive.
* **reference** — the historical per-event engine: one heap callback per
  (core, vector) hop.  Kept as the differential oracle
  (``tests/core/test_event_vectorized.py`` pins the two equal) and run
  for degenerate timings (zero-cycle stations), where heap tie-breaking
  is the only defined order.

Why the decomposition is exact: layers share no stations — a layer's DC
and chain cores are touched only by that layer's events — so the global
heap interleaving across layers cannot affect any timestamp.  Within a
layer, every station serves vectors in (arrival time, schedule seq)
order; with strictly positive per-vector service times the chain
preserves strict arrival order, so the heap's dispatch order is exactly
reproduced by a stable sort on (arrival, enqueue rank), where the
enqueue rank of a consumer vector is (producer's service position of its
source vector, consumer vector index) — the order ``chain_complete``
walks the waiter lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.perfmodel import LayerTiming
from repro.core.streaming import dependence_map, station_scan
from repro.errors import SimulationError
from repro.utils.events import EventQueue

@dataclass
class EventSegmentResult:
    """Outcome of one event-driven segment run."""

    total_cycles: float
    layer_finish: Dict[int, float] = field(default_factory=dict)
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
        self.timings = list(timings)
        self.requests = requests

    # -- engine selection ------------------------------------------------------

    def _vectorizable(self) -> bool:
        """True when strict service ordering makes the sort-based engine
        provably equal to heap dispatch (see module docstring)."""
        for lt in self.timings:
            if lt.dc.total <= 0.0:
                return False
            if lt.computing_nodes and lt.iteration.total <= 0.0:
                return False
        return True

    def run(self) -> EventSegmentResult:
        if self._vectorizable():
            return self.run_vectorized()
        return self.run_reference()

    # -- vectorized engine -----------------------------------------------------

    def run_vectorized(self) -> EventSegmentResult:
        """Batched engine: one queue event per layer, NumPy per-vector math."""
        timings = self.timings
        n_layers = len(timings)
        requests = self.requests
        hop = timings[0].fill_per_hop

        producer_of, consumer_sources = dependence_map(timings, requests)
        consumers_of: List[List[int]] = [[] for _ in timings]
        for li, pj in enumerate(producer_of):
            if pj is not None:
                consumers_of[pj].append(li)

        # Per-layer outputs, indexed by vector id (request-major).
        chain_done: List[Optional[np.ndarray]] = [None] * n_layers
        # Service position of each producer vector at its DC — the seq
        # component of the heap order consumers inherit.
        dc_position: List[Optional[np.ndarray]] = [None] * n_layers
        finish = [0.0] * n_layers
        vector_events = 0

        def process_layer(li: int) -> None:
            """Vectorized handler: every (core, vector) hop of one layer."""
            nonlocal vector_events
            lt = timings[li]
            total = lt.iterations * requests
            pj = producer_of[li]
            if pj is None:
                # Source layer: all vectors stream from DRAM at t=0 and
                # enter the DC heap in (request, vector) order.
                arrivals = np.zeros(total)
                order = np.arange(total)
            else:
                src = consumer_sources[li]
                prod_done = chain_done[pj]
                assert prod_done is not None and dc_position[pj] is not None
                # Same float op the per-event engine applied per waiter.
                arrivals = prod_done[src] + hop
                # Heap order among same-time arrivals: producers complete
                # their chains in DC-service order, and each completion
                # enqueues its waiters in consumer-vector order.
                enqueue = np.argsort(dc_position[pj][src], kind="stable")
                order = enqueue[np.argsort(arrivals[enqueue], kind="stable")]
            # DC: a serial FIFO station over the heap-ordered arrivals.
            dc_start = station_scan(arrivals[order], lt.dc.total)
            dc_done = dc_start + lt.dc.total
            nodes = lt.computing_nodes
            if nodes:
                t_iter = lt.iteration.total
                t_forward = lt.iteration.t_forward
                incoming = dc_done + hop
                for k in range(nodes):
                    starts = station_scan(incoming, t_iter)
                    if k + 1 < nodes:
                        incoming = (starts + t_forward) + hop
                layer_done = starts + t_iter
            else:
                layer_done = dc_done
            # Map service order back to vector ids.
            by_vector = np.empty(total)
            by_vector[order] = layer_done
            position = np.empty(total, dtype=np.intp)
            position[order] = np.arange(total, dtype=np.intp)
            chain_done[li] = by_vector
            dc_position[li] = position
            finish[li] = float(np.max(layer_done))
            vector_events += total * (1 + nodes)
            # Ready consumers ride the batched queue: each gets one event
            # at its first-arrival time, whose handler is fully vectorized.
            for cl in consumers_of[li]:
                first = float(np.min(layer_done)) + hop
                queue.schedule(
                    max(first, queue.now),
                    lambda cl=cl: process_layer(cl),
                    tag="layer-batch",
                )

        # One queue event per layer; source layers drain together from the
        # t=0 same-timestamp batch.
        queue = EventQueue()
        for li, pj in enumerate(producer_of):
            if pj is None:
                queue.schedule(0.0, lambda li=li: process_layer(li), tag="layer-batch")
        queue.run(batched=True)
        return EventSegmentResult(
            total_cycles=max(finish),
            layer_finish={
                lt.spec.index: finish[li] for li, lt in enumerate(timings)
            },
            events_processed=vector_events,
            requests=requests,
        )

    # -- reference engine ------------------------------------------------------

    def run_reference(self) -> EventSegmentResult:
        """The historical per-event engine: one heap callback per hop."""
        queue = EventQueue()
        timings = self.timings
        n_layers = len(timings)
        requests = self.requests

        # Per-layer mutable state.
        dc_free = [0.0] * n_layers
        core_free = [[0.0] * lt.computing_nodes for lt in timings]
        chain_done: List[Dict[int, float]] = [dict() for _ in timings]
        finish = [0.0] * n_layers

        producer_of, consumer_sources = dependence_map(timings, requests)
        totals = [lt.iterations * requests for lt in timings]

        # Reverse index: producer layer -> {producer vector: [consumer vectors]}
        # with vector ids request-major, mirroring the vectorized engine.
        waiters: List[Dict[int, List[Tuple[int, int]]]] = [
            dict() for _ in timings
        ]
        for li, sources in enumerate(consumer_sources):
            if sources is None:
                continue
            pj = producer_of[li]
            assert pj is not None
            for v, src in enumerate(sources.tolist()):
                waiters[pj].setdefault(src, []).append((li, v))

        hop = timings[0].fill_per_hop

        def core_receive(li: int, k: int, v: int, t: float) -> None:
            lt = timings[li]
            start = max(t, core_free[li][k])
            compute_done = start + lt.iteration.total
            core_free[li][k] = compute_done
            forward_at = start + lt.iteration.t_forward
            if k + 1 < lt.computing_nodes:
                queue.schedule(
                    max(forward_at + hop, queue.now),
                    lambda: core_receive(li, k + 1, v, forward_at + hop),
                )
            # The vector's results exist once the last core computed it.
            if k == lt.computing_nodes - 1:
                chain_complete(li, v, compute_done)

        def chain_complete(li: int, v: int, t: float) -> None:
            chain_done[li][v] = t
            finish[li] = max(finish[li], t)
            for (cl, cv) in waiters[li].get(v, ()):
                queue.schedule(
                    max(t + hop, queue.now),
                    lambda cl=cl, cv=cv, t=t: dc_receive(cl, cv, t + hop),
                )

        def dc_receive(li: int, v: int, t: float) -> None:
            lt = timings[li]
            start = max(t, dc_free[li])
            done = start + lt.dc.total
            dc_free[li] = done
            if lt.computing_nodes:
                queue.schedule(
                    max(done + hop, queue.now),
                    lambda: core_receive(li, 0, v, done + hop),
                )
            else:
                chain_complete(li, v, done)

        # Source layers (no in-segment producer) stream from DRAM at t=0,
        # request-major so batched requests follow each other back to back.
        for li, lt in enumerate(timings):
            if producer_of[li] is None:
                for v in range(totals[li]):
                    queue.schedule(0.0, lambda li=li, v=v: dc_receive(li, v, 0.0))

        queue.run()
        for li, lt in enumerate(timings):
            if len(chain_done[li]) != totals[li]:
                raise SimulationError(
                    f"layer {lt.spec.name}: only {len(chain_done[li])} of "
                    f"{totals[li]} vectors completed (deadlock?)"
                )
        return EventSegmentResult(
            total_cycles=max(finish),
            layer_finish={
                lt.spec.index: finish[li] for li, lt in enumerate(timings)
            },
            events_processed=queue.processed,
            requests=requests,
        )
