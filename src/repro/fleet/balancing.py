"""Cross-chip load balancing: where does the next request go?

The router keeps a *fluid* load estimate per chip — outstanding
estimated work (the profile's ``service_ms`` per routed request)
draining at the chip's aggregate service speed (one unit per live
replica, divided by the chip's degradation factor).  Balancers pick among a model's live
replica chips using only this estimate, never the chips' internal state:
routing happens in a separate pass *before* the chip simulations run, so
serial and process-parallel execution see the identical routing and stay
byte-identical.

Four policies (``BALANCERS``):

* ``round-robin`` — per-model rotation, load-blind.
* ``least-loaded`` — argmin of the fluid estimate (ties: lowest chip).
* ``p2c`` — power of two choices: sample two distinct candidates with a
  seeded RNG, route to the less loaded.  The classic result: expected
  max load overshoot drops from ``Θ(log N / log log N)`` (random) to
  ``Θ(log log N)``.
* ``sticky`` — model affinity: a stable hash of the model name pins all
  of a model's traffic to one live replica chip (cache/weight locality
  at the cost of load awareness: the model's other replicas idle); a
  crash re-hashes over the survivors.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Optional, Sequence

from repro.errors import SimulationError


class FluidLoadTracker:
    """Outstanding estimated work per chip, draining at service speed."""

    def __init__(self) -> None:
        self._backlog_ms: Dict[int, float] = {}
        self._updated_ms: Dict[int, float] = {}
        #: Aggregate drain rate per chip: ``live replicas / degradation``
        #: (a chip running two replicas at half speed drains one unit of
        #: service-ms per sim-ms).  The router maintains this as replicas
        #: move and faults land.
        self.speed: Dict[int, float] = {}

    def load_ms(self, chip: int, now_ms: float) -> float:
        """The decayed backlog estimate of ``chip`` at ``now_ms``."""
        backlog = self._backlog_ms.get(chip, 0.0)
        updated = self._updated_ms.get(chip, 0.0)
        if now_ms > updated:
            backlog = max(
                0.0, backlog - (now_ms - updated) * self.speed.get(chip, 1.0)
            )
        return backlog

    def least_loaded(self, candidates: Sequence[int], now_ms: float) -> int:
        """The candidate of least :meth:`load_ms` at ``now_ms``.

        Ties break to the lowest chip.  One pass over the tracker's
        state with :meth:`load_ms`'s own arithmetic inline, so a routed
        request costs one call here rather than one per candidate.
        """
        backlogs = self._backlog_ms
        updated = self._updated_ms
        speed = self.speed
        best: Optional[int] = None
        best_load = 0.0
        for chip in candidates:
            load = backlogs.get(chip, 0.0)
            since = updated.get(chip, 0.0)
            if now_ms > since:
                # max(0.0, x), without the call.
                load -= (now_ms - since) * speed.get(chip, 1.0)
                if not load > 0.0:
                    load = 0.0
            # The first candidate, then (load, chip) order.
            if best is None or load < best_load or (
                load == best_load and chip < best
            ):
                best = chip
                best_load = load
        if best is None:
            raise SimulationError("no candidate chip to balance over")
        return best

    def add(self, chip: int, now_ms: float, est_ms: float) -> None:
        self._backlog_ms[chip] = self.load_ms(chip, now_ms) + est_ms
        self._updated_ms[chip] = max(
            now_ms, self._updated_ms.get(chip, 0.0)
        )

    def reset_chip(self, chip: int) -> None:
        self._backlog_ms.pop(chip, None)
        self._updated_ms.pop(chip, None)


class Balancer:
    """Picks one chip among a model's live replica chips."""

    name = "abstract"

    def __init__(self, tracker: FluidLoadTracker) -> None:
        self.tracker = tracker

    def choose(
        self,
        model: str,
        candidates: Sequence[int],
        now_ms: float,
    ) -> int:
        raise NotImplementedError


class RoundRobinBalancer(Balancer):
    """Per-model rotation over the candidate list."""

    name = "round-robin"

    def __init__(self, tracker: FluidLoadTracker) -> None:
        super().__init__(tracker)
        self._next: Dict[str, int] = {}

    def choose(
        self,
        model: str,
        candidates: Sequence[int],
        now_ms: float,
    ) -> int:
        k = self._next.get(model, 0)
        self._next[model] = k + 1
        return candidates[k % len(candidates)]


class LeastLoadedBalancer(Balancer):
    """Argmin of the fluid load estimate; ties break to the lowest chip."""

    name = "least-loaded"

    def choose(
        self,
        model: str,
        candidates: Sequence[int],
        now_ms: float,
    ) -> int:
        return self.tracker.least_loaded(candidates, now_ms)


class PowerOfTwoBalancer(Balancer):
    """Sample two distinct candidates (seeded), route to the less loaded."""

    name = "p2c"

    def __init__(self, tracker: FluidLoadTracker, *, seed: int = 0) -> None:
        super().__init__(tracker)
        self._rng = random.Random(seed)

    def choose(
        self,
        model: str,
        candidates: Sequence[int],
        now_ms: float,
    ) -> int:
        n = len(candidates)
        if n == 1:
            return candidates[0]
        i = self._rng.randrange(n)
        j = self._rng.randrange(n - 1)
        if j >= i:
            j += 1
        a, b = candidates[i], candidates[j]
        if (self.tracker.load_ms(a, now_ms), a) <= (
            self.tracker.load_ms(b, now_ms),
            b,
        ):
            return a
        return b


class StickyTenantBalancer(Balancer):
    """Stable-hash model pinning (locality-aware sticky-tenant).

    A model always lands on the same *slot* of its live candidates, so
    one replica serves all of its traffic; when the candidate set changes
    (a crash, a replica still staging), the model re-hashes over the new
    set (a minimal, deterministic stand-in for consistent hashing).
    """

    name = "sticky"

    def choose(
        self,
        model: str,
        candidates: Sequence[int],
        now_ms: float,
    ) -> int:
        # The key is part of the pinned output: another key re-homes
        # models and changes every sticky run's bytes.
        slot = zlib.crc32(f"{model}/".encode()) % len(candidates)
        return candidates[slot]


BALANCERS = {
    "round-robin": RoundRobinBalancer,
    "least-loaded": LeastLoadedBalancer,
    "p2c": PowerOfTwoBalancer,
    "sticky": StickyTenantBalancer,
}


def make_balancer(
    name: str, tracker: FluidLoadTracker, *, seed: int = 0
) -> Balancer:
    try:
        cls = BALANCERS[name]
    except KeyError:
        raise SimulationError(
            f"unknown balancer {name!r}; choose from {sorted(BALANCERS)}"
        )
    if cls is PowerOfTwoBalancer:
        return PowerOfTwoBalancer(tracker, seed=seed)
    return cls(tracker)


__all__ = [
    "BALANCERS",
    "Balancer",
    "FluidLoadTracker",
    "LeastLoadedBalancer",
    "PowerOfTwoBalancer",
    "RoundRobinBalancer",
    "StickyTenantBalancer",
    "make_balancer",
]
