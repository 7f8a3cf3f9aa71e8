"""Tenants and requests of the online serving layer.

A *tenant* is one model owner submitting inference requests against the
chip: a network, an arrival process, a relative latency deadline, a
scheduling priority, and a bound on how many of its requests may wait in
the admission queue.  A *request* is one inference: the simulator stamps
its arrival, absolute deadline and admission order, then its service
start, so the SLO accounting can attribute queueing, resize stalls, and
service separately.
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
    seq: int = 0          # global admission order, FIFO tie-break
    start_ms: Optional[float] = None
