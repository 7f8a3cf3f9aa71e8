"""Replica placement: bin-packing model replicas onto fleet chips.

Each chip is one MAICC array of ``array_size`` cores; a replica of a
model owns a fixed partition share (its profile's ``cores``).  Placement
is first-fit decreasing over replica core sizes with two hard rules:

* at most one replica of a model per chip (a second co-located replica
  would share the partition, not add capacity);
* the chip's packed shares never exceed ``array_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.fleet.profiles import ModelProfile


@dataclass(frozen=True)
class ReplicaAssignment:
    """One model replica living on one chip."""

    model: str
    chip: int
    cores: int
    region_start: int


@dataclass
class FleetPlacement:
    """The replica map of a fleet: who lives where, with what share."""

    array_size: int
    n_chips: int
    assignments: List[ReplicaAssignment] = field(default_factory=list)

    def chips_of(self, model: str) -> List[int]:
        """Chips hosting a replica of ``model``, ascending."""
        return sorted(
            a.chip for a in self.assignments if a.model == model
        )

    def on_chip(self, chip: int) -> List[ReplicaAssignment]:
        return [a for a in self.assignments if a.chip == chip]

    def used_cores(self, chip: int) -> int:
        return sum(a.cores for a in self.on_chip(chip))

    def free_cores(self, chip: int) -> int:
        return self.array_size - self.used_cores(chip)

    def replica_count(self, model: str) -> int:
        return len(self.chips_of(model))

    def add(self, model: str, chip: int, cores: int) -> ReplicaAssignment:
        """Place one more replica (validates the two hard rules)."""
        if not 0 <= chip < self.n_chips:
            raise SimulationError(f"chip {chip} outside fleet of {self.n_chips}")
        if chip in self.chips_of(model):
            raise SimulationError(
                f"chip {chip} already hosts a replica of {model!r}"
            )
        if cores > self.free_cores(chip):
            raise SimulationError(
                f"replica of {model!r} needs {cores} cores; chip {chip} "
                f"has {self.free_cores(chip)} free"
            )
        assignment = ReplicaAssignment(
            model=model,
            chip=chip,
            cores=cores,
            region_start=self.used_cores(chip),
        )
        self.assignments.append(assignment)
        return assignment

    def remove(self, model: str, chip: int) -> None:
        before = len(self.assignments)
        self.assignments = [
            a
            for a in self.assignments
            if not (a.model == model and a.chip == chip)
        ]
        if len(self.assignments) == before:
            raise SimulationError(
                f"no replica of {model!r} on chip {chip} to remove"
            )

    def evict_chip(self, chip: int) -> List[ReplicaAssignment]:
        """Drop every replica of a crashed chip; returns what was lost."""
        lost = self.on_chip(chip)
        self.assignments = [a for a in self.assignments if a.chip != chip]
        return lost

    def as_dict(self) -> Dict[str, object]:
        return {
            "array_size": self.array_size,
            "chips": self.n_chips,
            "replicas": [
                {
                    "model": a.model,
                    "chip": a.chip,
                    "cores": a.cores,
                    "region_start": a.region_start,
                }
                for a in sorted(
                    self.assignments, key=lambda a: (a.chip, a.region_start)
                )
            ],
        }


def place_replicas(
    profiles: Mapping[str, ModelProfile],
    replicas: Mapping[str, int],
    n_chips: int,
    array_size: int,
) -> FleetPlacement:
    """First-fit-decreasing bin-pack of the requested replica counts.

    Replica units sort by core share descending (big partitions first —
    the classic FFD heuristic), then by model name for determinism; each
    unit lands on the first chip with room that does not already host
    the model.  Raises when the fleet cannot hold the layout.
    """
    if n_chips < 1:
        raise SimulationError(f"fleet needs >= 1 chip, got {n_chips}")
    placement = FleetPlacement(array_size=array_size, n_chips=n_chips)
    units: List[Tuple[int, str]] = []
    for model in sorted(replicas):
        count = replicas[model]
        profile = profiles.get(model)
        if profile is None:
            raise SimulationError(f"no profile for model {model!r}")
        if count < 1:
            raise SimulationError(
                f"model {model!r} needs >= 1 replica, got {count}"
            )
        if count > n_chips:
            raise SimulationError(
                f"model {model!r} wants {count} replicas on {n_chips} chips "
                "(max one replica per chip)"
            )
        if profile.cores > array_size:
            raise SimulationError(
                f"model {model!r} share {profile.cores} exceeds the "
                f"{array_size}-core array"
            )
        units.extend((profile.cores, model) for _ in range(count))
    units.sort(key=lambda u: (-u[0], u[1]))
    for cores, model in units:
        hosts = set(placement.chips_of(model))
        target = next(
            (
                chip
                for chip in range(n_chips)
                if chip not in hosts and placement.free_cores(chip) >= cores
            ),
            None,
        )
        if target is None:
            raise SimulationError(
                f"cannot place replica of {model!r} ({cores} cores): no "
                f"chip has room (fleet of {n_chips} x {array_size} cores)"
            )
        placement.add(model, target, cores)
    return placement


def best_chip_for(
    placement: FleetPlacement,
    model: str,
    cores: int,
    *,
    exclude: Sequence[int] = (),
) -> Optional[int]:
    """The most-free chip that can host one more replica of ``model``.

    Ties break to the lowest chip id; ``None`` when no chip fits.  Used
    by the autoscaler (scale-up) and by crash re-placement.
    """
    hosts = set(placement.chips_of(model))
    banned = hosts | set(exclude)
    candidates = [
        chip
        for chip in range(placement.n_chips)
        if chip not in banned and placement.free_cores(chip) >= cores
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda chip: (placement.free_cores(chip), -chip))


__all__ = [
    "FleetPlacement",
    "ReplicaAssignment",
    "best_chip_for",
    "place_replicas",
]
