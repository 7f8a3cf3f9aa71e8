"""Fleet traffic: seeded million-user load shapes.

Two traffic kinds drive a fleet scenario:

* **open loop** — a model-wide Poisson request stream, optionally
  modulated by a diurnal shape (non-homogeneous Poisson via thinning:
  candidates are drawn at the peak rate and accepted with probability
  ``shape.factor(t)``, so the same seed yields the same stream for any
  shape).  The coordinator pre-generates the stream, routes every
  arrival, and hands each chip its slice as a
  :class:`~repro.serving.arrivals.TraceArrivals` trace.
* **closed loop** — :class:`UserGroupArrivals`: ``users`` concurrent
  request chains with exponential think times.  Each chain issues its
  next request only after the previous one completes, so offered load
  self-throttles; the diurnal shape divides think times (shorter thinks
  at peak).  Groups are sticky: the router splits users across a model's
  replica chips once, and each chip runs its group entirely locally.

All randomness flows from explicit integer seeds through per-process
:class:`random.Random` instances; :func:`derive_seed` gives independent,
reproducible streams per (seed, chip, model) without overlap in
practice.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SimulationError
from repro.serving.arrivals import ArrivalProcess


def derive_seed(seed: int, *parts: object) -> int:
    """A stable sub-seed for one (chip, model, ...) stream."""
    text = "/".join([str(seed)] + [str(p) for p in parts])
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


@dataclass(frozen=True)
class DiurnalShape:
    """A smooth day curve: rate factor in ``[floor, 1]`` over ``period_ms``.

    ``factor(t)`` peaks at half-period and bottoms out at ``floor`` at
    t=0 — one simulated "day" per period, compressed to whatever sim-time
    scale the scenario uses.
    """

    period_ms: float
    floor: float = 0.2

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise SimulationError(
                f"diurnal period must be positive, got {self.period_ms}"
            )
        if not 0.0 < self.floor <= 1.0:
            raise SimulationError(
                f"diurnal floor must be in (0, 1], got {self.floor}"
            )

    def factor(self, t_ms: float) -> float:
        phase = 2.0 * math.pi * (t_ms / self.period_ms)
        return self.floor + (1.0 - self.floor) * 0.5 * (1.0 - math.cos(phase))


def generate_open_arrivals(
    rate_hz: float,
    seed: int,
    duration_ms: float,
    *,
    shape: Optional[DiurnalShape] = None,
) -> List[float]:
    """The full arrival stream of one open-loop model, sorted ascending.

    ``rate_hz`` is the *peak* rate; with a shape the realized mean rate
    is ``rate_hz * mean(factor)``.  Thinning keeps the candidate stream
    identical across shapes for one seed.
    """
    if rate_hz <= 0:
        raise SimulationError(f"rate must be positive, got {rate_hz}")
    rng = random.Random(seed)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_hz) * 1000.0
        if t >= duration_ms:
            return times
        if shape is None or rng.random() < shape.factor(t):
            times.append(t)


class UserGroupArrivals(ArrivalProcess):
    """``users`` concurrent closed-loop chains with exponential thinks.

    Seeds one arrival per user (staggered uniformly over one mean think
    time so the group does not arrive as a thundering herd), then lets
    every completion trigger the next request of *a* chain after an
    exponential think — with interchangeable users, tracking which chain
    completed is statistically irrelevant and keeping one RNG makes the
    stream replayable.  The diurnal shape divides the think time at the
    completion instant, so users think faster at peak.  A chain dies
    naturally when its next arrival lands past the run window (the
    serving loop drops post-window arrivals).
    """

    closed_loop = True

    def __init__(
        self,
        users: int,
        think_ms: float,
        *,
        seed: int = 0,
        shape: Optional[DiurnalShape] = None,
    ) -> None:
        if users < 1:
            raise SimulationError(f"user group needs >= 1 user, got {users}")
        if think_ms <= 0:
            raise SimulationError(
                f"mean think time must be positive, got {think_ms}"
            )
        self.users = users
        self.think_ms = think_ms
        self.seed = seed
        self.shape = shape
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def initial_arrivals(self) -> List[float]:
        return [
            self._rng.random() * self.think_ms for _ in range(self.users)
        ]

    def after_completion_ms(self, completion_ms: float) -> Optional[float]:
        think = self._rng.expovariate(1.0 / self.think_ms)
        if self.shape is not None:
            think /= self.shape.factor(completion_ms)
        return completion_ms + think
