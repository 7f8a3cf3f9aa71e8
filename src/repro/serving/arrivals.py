"""Load generators: reproducible per-tenant request arrival streams.

Every process yields arrival times in milliseconds of simulation time.
Two modes exist:

* **open loop** — arrivals are generated independently of completions
  (:class:`PeriodicArrivals`, :class:`PoissonArrivals`,
  :class:`TraceArrivals`).  The next arrival follows from the previous
  arrival alone, so an overloaded server accumulates a queue instead of
  slowing the offered load (the regime where shedding matters).
* **closed loop** — the next request is issued only after the previous
  one completes, plus a think time
  (:class:`repro.fleet.traffic.UserGroupArrivals`).  The offered load
  self-throttles, modelling users who wait for a result before
  submitting the next request.

All randomness comes from a per-process seeded :class:`random.Random`,
re-seeded by :meth:`ArrivalProcess.reset` at the start of every serving
run, so two runs over the same specs produce byte-identical metrics.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import SimulationError


class ArrivalProcess:
    """Interface every load generator implements.

    :meth:`initial_arrivals` seeds the run; ``closed_loop`` selects which
    of the two generation hooks the serving simulator drives after that:
    open-loop processes advance via :meth:`next_ms` after each arrival;
    closed-loop processes advance via :meth:`after_completion_ms` after
    each completion.
    """

    closed_loop: bool = False

    def reset(self) -> None:
        """Rewind to the first arrival (re-seeds any internal RNG)."""

    def initial_arrivals(self) -> List[float]:
        """Arrival times seeded before the run starts.

        Each seeded arrival starts one chain.  Open-loop processes seed
        at most one (an empty list is an empty stream) and chain the rest
        through :meth:`next_ms`.  Closed-loop processes with many
        concurrent users (e.g. :class:`repro.fleet.traffic.UserGroupArrivals`)
        seed one arrival per user — every completion then schedules that
        chain's next request, so ``len(initial_arrivals())`` chains stay
        in flight.
        """
        raise NotImplementedError

    def next_ms(self, last_arrival_ms: float) -> Optional[float]:
        """Open loop: the arrival after the one at ``last_arrival_ms``."""
        raise NotImplementedError

    def after_completion_ms(self, completion_ms: float) -> Optional[float]:
        """Closed loop: the arrival following a completion at ``completion_ms``."""
        raise NotImplementedError


class PeriodicArrivals(ArrivalProcess):
    """A fixed-rate sensor: one frame every ``period_ms`` from ``offset_ms``."""

    def __init__(self, period_ms: float, *, offset_ms: float = 0.0) -> None:
        if period_ms <= 0:
            raise SimulationError(f"period must be positive, got {period_ms}")
        if offset_ms < 0:
            raise SimulationError(f"offset must be >= 0, got {offset_ms}")
        self.period_ms = period_ms
        self.offset_ms = offset_ms

    @property
    def rate_hz(self) -> float:
        return 1000.0 / self.period_ms

    def initial_arrivals(self) -> List[float]:
        return [self.offset_ms]

    def next_ms(self, last_arrival_ms: float) -> Optional[float]:
        return last_arrival_ms + self.period_ms


class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson arrivals at ``rate_hz``, seeded for replay."""

    def __init__(self, rate_hz: float, *, seed: int = 0) -> None:
        if rate_hz <= 0:
            raise SimulationError(f"rate must be positive, got {rate_hz}")
        self.rate_hz = rate_hz
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def _gap_ms(self) -> float:
        return self._rng.expovariate(self.rate_hz) * 1000.0

    def initial_arrivals(self) -> List[float]:
        return [self._gap_ms()]

    def next_ms(self, last_arrival_ms: float) -> Optional[float]:
        return last_arrival_ms + self._gap_ms()


class TraceArrivals(ArrivalProcess):
    """Replays an explicit, sorted list of arrival times (ms)."""

    def __init__(self, times_ms: Sequence[float]) -> None:
        times = [float(t) for t in times_ms]
        if any(t < 0 for t in times):
            raise SimulationError("trace arrival times must be >= 0")
        if times != sorted(times):
            raise SimulationError("trace arrival times must be sorted")
        self.times_ms = times
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def _emit(self) -> Optional[float]:
        if self._cursor >= len(self.times_ms):
            return None
        t = self.times_ms[self._cursor]
        self._cursor += 1
        return t

    def initial_arrivals(self) -> List[float]:
        first = self._emit()
        return [] if first is None else [first]

    def next_ms(self, last_arrival_ms: float) -> Optional[float]:
        return self._emit()
