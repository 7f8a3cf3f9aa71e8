"""Failure scenarios: crashes and slow chips.

Two failure kinds, both declared up front so a failed run replays
byte-identically:

* :class:`ChipCrash` — the chip halts at ``at_ms``: queued and in-flight
  requests are accounted as ``failed`` (never silently dropped), its
  replicas are re-placed onto survivors (ready after the weight
  re-staging time), and the router stops sending traffic the instant of
  the crash.
* :class:`ChipDegradation` — from ``from_ms`` every service window on
  the chip is multiplied by ``factor`` (> 1 is slower).  Models a
  thermally throttled or mis-clocked chip; the router's fluid estimate
  slows the chip's drain rate by the same factor, so load-aware
  balancers steer around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
# The step rule lives with the serving policy, whose chips apply it
# without importing the fleet; the router bills its fluid load by it too.
from repro.serving.policies import DegradationStep, step_factor


@dataclass(frozen=True)
class ChipCrash:
    """One chip halting for good at ``at_ms``."""

    chip: int
    at_ms: float

    def __post_init__(self) -> None:
        if self.at_ms <= 0:
            raise SimulationError(
                f"crash time must be positive, got {self.at_ms}"
            )


@dataclass(frozen=True)
class ChipDegradation:
    """A chip serving slower (factor > 1) from ``from_ms`` onward."""

    chip: int
    from_ms: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise SimulationError(
                f"degradation factor must be positive, got {self.factor}"
            )
        if self.from_ms < 0:
            raise SimulationError(
                f"degradation start must be >= 0, got {self.from_ms}"
            )


@dataclass
class FailureScenario:
    """Everything that goes wrong in one fleet run."""

    crashes: List[ChipCrash] = field(default_factory=list)
    degradations: List[ChipDegradation] = field(default_factory=list)

    def validate(self, n_chips: int) -> None:
        seen = set()
        for crash in self.crashes:
            if not 0 <= crash.chip < n_chips:
                raise SimulationError(
                    f"crash names chip {crash.chip} outside fleet of {n_chips}"
                )
            if crash.chip in seen:
                raise SimulationError(
                    f"chip {crash.chip} crashes more than once"
                )
            seen.add(crash.chip)
        for deg in self.degradations:
            if not 0 <= deg.chip < n_chips:
                raise SimulationError(
                    f"degradation names chip {deg.chip} outside fleet of {n_chips}"
                )

    def halt_ms(self, chip: int) -> "float | None":
        for crash in self.crashes:
            if crash.chip == chip:
                return crash.at_ms
        return None

    def degradation_schedule(self, chip: int) -> Tuple[DegradationStep, ...]:
        """Sorted ``(from_ms, factor)`` steps for one chip."""
        return tuple(
            sorted(
                (d.from_ms, d.factor)
                for d in self.degradations
                if d.chip == chip
            )
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "crashes": [
                {"chip": c.chip, "at_ms": c.at_ms}
                for c in sorted(self.crashes, key=lambda c: (c.at_ms, c.chip))
            ],
            "degradations": [
                {
                    "chip": d.chip,
                    "from_ms": d.from_ms,
                    "factor": d.factor,
                }
                for d in sorted(
                    self.degradations, key=lambda d: (d.from_ms, d.chip)
                )
            ],
        }


__all__ = [
    "ChipCrash",
    "ChipDegradation",
    "DegradationStep",
    "FailureScenario",
    "step_factor",
]
