"""Admission control: bounded per-tenant FIFO request queues.

Each tenant owns one :class:`AdmissionQueue`, which only receives that
tenant's arrivals, in event order: ``arrival_ms`` never decreases,
``seq`` (the simulator's global admission counter) always increases,
and ``deadline_ms`` is the arrival plus the tenant's fixed relative
deadline.  So arrival order is both the FIFO and the EDF order inside
one queue, and the queue is a ``deque``; :meth:`AdmissionQueue.offer`
raises :class:`~repro.errors.SimulationError` on an out-of-order offer.
The discipline only ranks queue heads across the tenants of a shared
server (:meth:`AdmissionQueue.peek_key`).

``offer`` is the one place that appends, and so the one place that
checks order and capacity.  The serving chip takes requests off the
head of :attr:`AdmissionQueue.requests` itself (``popleft``), with no
wrapper call per dispatch.

Admission is never silent: ``offer`` admits the request or returns it
as *shed*.  A full queue sheds the newcomer under both disciplines (under
EDF it has the latest deadline in its queue, so it is the one EDF would
evict); sheds are counted in the SLO reports and telemetry.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.serving.tenancy import Request

#: Queue disciplines understood by :class:`AdmissionQueue`.
DISCIPLINES = ("fifo", "edf")

_Key = Tuple[float, float, int]


class AdmissionQueue:
    """A bounded FIFO of one tenant's waiting requests, in arrival order."""

    def __init__(
        self,
        *,
        capacity: Optional[int] = None,
        discipline: str = "fifo",
    ) -> None:
        if discipline not in DISCIPLINES:
            raise SimulationError(
                f"unknown queue discipline {discipline!r}; choose from {DISCIPLINES}"
            )
        if capacity is not None and capacity < 1:
            raise SimulationError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.discipline = discipline
        #: The waiting requests, head first.  Only :meth:`offer` appends.
        self.requests: Deque[Request] = deque()

    @property
    def depth(self) -> int:
        return len(self.requests)

    def offer(self, request: Request) -> Optional[Request]:
        """Admit ``request`` or shed it; returns the shed request (or None).

        ``request`` must not precede the queue's tail in arrival,
        deadline or ``seq``; such an offer raises
        :class:`~repro.errors.SimulationError` and leaves the queue as
        it was.
        """
        requests = self.requests
        if requests:
            tail = requests[-1]
            if (
                request.arrival_ms < tail.arrival_ms
                or request.deadline_ms < tail.deadline_ms
                or request.seq <= tail.seq
            ):
                raise SimulationError(
                    f"out-of-order offer to an admission queue: {request} after {tail}"
                )
            # capacity >= 1, so only a non-empty queue can be full.
            if self.capacity is not None and len(requests) >= self.capacity:
                return request
        requests.append(request)
        return None

    def peek_key(self) -> Optional[_Key]:
        """The head's rank across tenants under the discipline, if any."""
        if not self.requests:
            return None
        head = self.requests[0]
        if self.discipline == "fifo":
            return (head.arrival_ms, head.arrival_ms, head.seq)
        return (head.deadline_ms, head.arrival_ms, head.seq)
