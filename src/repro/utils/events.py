"""A minimal discrete-event simulation kernel.

Drives the serving loop (one chip's arrivals, dispatches and control
epochs), the fleet's per-chip runs and the NoC route replay.  Events
carry a timestamp, a monotonically increasing sequence number, a
callback and the callback's arguments.  Simultaneous events dispatch in
schedule order: the heap orders by ``(time, seq)`` and ``seq`` counts
:meth:`EventQueue.schedule` calls, so a run's dispatch order is a pure
function of its schedule calls.  Callers that share a timestamp
therefore get a deterministic but order-dependent tie-break (on a
shared serving server, the tenant declared first is served first).
Tagged events are surfaced to the telemetry recorder as instant events
on the ``events`` track (one counter per tag), so a queue-driven
simulation gets a timeline for free.

Hot-path notes:

* The heap holds each pending event as the plain tuple
  ``(time, seq, action, args, tag)`` and :meth:`EventQueue.run` calls
  ``action(*args)``, so a caller that schedules a bound method with its
  arguments builds no closure per event.  Heap order is resolved by
  tuple comparison on the first two fields; ``seq`` is unique, so the
  comparison never reaches the callback.
* :meth:`EventQueue.schedule` returns nothing, and :meth:`EventQueue.run`
  drains the heap without building any per-event object.
* ``seq`` is a plain int that :meth:`EventQueue.schedule` bumps, and
  :attr:`EventQueue.processed` is derived (scheduled minus pending), so
  the drain loop writes one attribute per event: the clock.
* Handlers that already hold the event's time take it as an argument
  rather than reading :attr:`EventQueue.now` (the serving chip's
  ``serve(state, now)``), so a dispatch pays no property call.
* The telemetry sink's ``enabled`` flag is read once per :meth:`run`, so
  runs against the default ``NullSink`` pay no per-event tag or
  formatting cost.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.telemetry import TelemetrySink, current as _current_telemetry

#: One pending event on the heap: ``(time, seq, action, args, tag)``.
_Entry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...], str]


class EventQueue:
    """Deterministic discrete-event queue.

    >>> q = EventQueue()
    >>> hits = []
    >>> q.schedule(5, lambda: hits.append("b"))
    >>> q.schedule(1, lambda: hits.append("a"))
    >>> q.run()
    5
    >>> hits
    ['a', 'b']
    """

    def __init__(self, telemetry: Optional[TelemetrySink] = None) -> None:
        self._heap: List[_Entry] = []
        #: Events scheduled so far; the next event's ``seq``.
        self._seq = 0
        self._now = 0.0
        self._telemetry = telemetry if telemetry is not None else _current_telemetry()

    @property
    def now(self) -> float:
        """Current simulation time (time of the last dispatched event)."""
        return self._now

    @property
    def processed(self) -> int:
        """Total number of events dispatched so far (scheduled - pending)."""
        return self._seq - len(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time: float, action: Callable[..., Any], *args: Any, tag: str = ""
    ) -> None:
        """Schedule ``action(*args)`` at absolute ``time``.

        ``time`` must not precede :attr:`now`; a NaN time is rejected
        too, since it would compare false against every other time and
        silently misorder the heap.  Events at one ``time`` dispatch in
        the order they were scheduled.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at t={time}: not at or after "
                f"current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, action, args, tag))

    def schedule_in(
        self, delay: float, action: Callable[..., Any], *args: Any, tag: str = ""
    ) -> None:
        """Schedule ``action(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule(self._now + delay, action, *args, tag=tag)

    def _emit(self, time: float, seq: int, tag: str) -> None:
        t = self._telemetry
        assert t.trace is not None and t.registry is not None
        t.trace.instant("events", tag, time, args={"seq": seq})
        t.registry.counter(f"events/by_tag/{tag}").inc()

    def run(self) -> float:
        """Dispatch events in (time, seq) order until the queue drains.

        Handlers may schedule further events, at the current time or
        later.  Returns the simulation time after the run: the time of
        the last dispatched event.
        """
        heap = self._heap
        emit = self._telemetry.enabled
        while heap:
            time, seq, action, args, tag = heappop(heap)
            self._now = time
            if emit and tag:
                self._emit(time, seq, tag)
            action(*args)
        return self._now
