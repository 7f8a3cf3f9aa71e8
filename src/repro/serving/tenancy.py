"""Tenants and requests of the online serving layer.

A *tenant* is one model owner submitting inference requests against the
chip: a network, an arrival process, a relative latency deadline, a
scheduling priority, and a bound on how many of its requests may wait in
the admission queue.  A *request* is one inference: the simulator stamps
its admission, service-start, and completion times so the SLO accounting
can attribute queueing, resize stalls, and service separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.nn.workloads import NetworkSpec
from repro.serving.arrivals import ArrivalProcess


@dataclass(frozen=True)
class TenantSpec:
    """One model owner sharing the array.

    ``deadline_ms`` is relative to each request's arrival (``inf`` means
    best-effort: nothing ever counts as a miss).  ``priority`` breaks
    scheduling ties — larger wins.  ``queue_capacity`` bounds the tenant's
    admission queue; ``None`` is unbounded (no shedding).
    """

    name: str
    network: NetworkSpec
    arrivals: ArrivalProcess
    deadline_ms: float = math.inf
    priority: int = 0
    queue_capacity: Optional[int] = None


@dataclass(slots=True)
class Request:
    """One inference request moving through admission, queue, and service."""

    tenant: str
    index: int            # per-tenant arrival index (0-based)
    arrival_ms: float
    deadline_ms: float    # absolute deadline (arrival + relative; inf = none)
    priority: int = 0
    seq: int = 0          # global admission order, FIFO tie-break
    start_ms: Optional[float] = None
    finish_ms: Optional[float] = None

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency (queueing + stalls + service)."""
        if self.finish_ms is None:
            raise ValueError(f"request {self.tenant}#{self.index} not finished")
        return self.finish_ms - self.arrival_ms

    @property
    def queue_wait_ms(self) -> float:
        """Time between arrival and service start (queueing + resize stall)."""
        if self.start_ms is None:
            raise ValueError(f"request {self.tenant}#{self.index} not started")
        return self.start_ms - self.arrival_ms

    @property
    def met_deadline(self) -> bool:
        if self.finish_ms is None:
            return False
        return self.finish_ms <= self.deadline_ms
