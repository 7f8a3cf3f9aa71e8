"""A trace-driven closed-loop arrival process for the serving tests.

Each completion issues the tenant's next request after a think time, so
the tests can drive the serving loop's closed-loop path on one chip with
a single chain.  The shipped closed-loop process is the fleet's
:class:`repro.fleet.traffic.UserGroupArrivals`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.serving.arrivals import ArrivalProcess


class ClosedLoopArrivals(ArrivalProcess):
    """Trace-driven closed loop: each completion triggers the next request
    after the next think time from ``think_ms`` (cycled).

    The first request arrives at ``offset_ms``.  ``think_ms`` may be a
    single float (constant think time) or a sequence that is replayed in
    order and wrapped around, so a measured think-time trace drives the
    loop deterministically.
    """

    closed_loop = True

    def __init__(
        self,
        think_ms: "float | Sequence[float]",
        *,
        offset_ms: float = 0.0,
    ) -> None:
        thinks = [float(t) for t in ([think_ms] if isinstance(think_ms, (int, float)) else think_ms)]
        if not thinks:
            raise SimulationError("think-time trace must be non-empty")
        if any(t < 0 for t in thinks):
            raise SimulationError("think times must be >= 0")
        if offset_ms < 0:
            raise SimulationError(f"offset must be >= 0, got {offset_ms}")
        self.think_ms = thinks
        self.offset_ms = offset_ms
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def initial_arrivals(self) -> List[float]:
        return [self.offset_ms]

    def after_completion_ms(self, completion_ms: float) -> Optional[float]:
        think = self.think_ms[self._cursor % len(self.think_ms)]
        self._cursor += 1
        return completion_ms + think
