"""The cluster router: one deterministic pass that routes every arrival.

A fleet run is two phases.  Phase 1 (this module, on the coordinator)
walks all open-loop arrivals, crash events, and autoscale epochs in one
merged time order and decides *where* each request goes — using only the
router-side fluid load model (:mod:`repro.fleet.balancing`), never the
chips' internal state.  Phase 2 then runs every chip's serving
simulation independently over its pre-routed trace, which is what makes
serial and process-parallel execution byte-identical: chips share
nothing, and results merge in fixed chip order.

The router also owns the fleet's *control plane* along the way:

* **crash handling** — at a :class:`~repro.fleet.failures.ChipCrash` the
  chip leaves every candidate set instantly; its replicas re-place onto
  the most-free surviving chips and come ready after the model's weight
  re-staging time.  Arrivals that find no live, ready replica are
  counted as ``router_shed`` per model — accounted, never dropped.
* **replica autoscaling** — every epoch the
  :class:`~repro.fleet.autoscale.ReplicaAutoscaler` compares each
  model's offered load (window arrivals x the profile's ``service_ms``)
  against its live replica capacity and adds/removes replicas; an SLO
  burn-rate alert (from a :class:`~repro.obs.monitor.SLOMonitor` fed
  with router-estimated latencies) waives the scale-up cooldown.

Closed-loop user groups never pass through the per-request balancer:
their sessions are split across the model's initial replica chips once
(sticky by construction) and live entirely inside one chip's simulation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.fleet.autoscale import ReplicaAutoscaler, ScaleEvent
from repro.fleet.balancing import Balancer, FluidLoadTracker
from repro.fleet.failures import FailureScenario, step_factor
from repro.fleet.placement import FleetPlacement, best_chip_for
from repro.fleet.profiles import ModelProfile


@dataclass(frozen=True)
class RecoveryEvent:
    """One replica re-placed after a crash (or lost for good)."""

    time_ms: float
    model: str
    from_chip: int
    to_chip: Optional[int]    # None: no surviving chip had room
    ready_ms: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_ms": self.time_ms,
            "model": self.model,
            "from_chip": self.from_chip,
            "to_chip": self.to_chip,
            "ready_ms": self.ready_ms,
        }


@dataclass
class RoutingResult:
    """Everything phase 1 decided."""

    #: ``(chip, model) -> sorted arrival times`` — each chip's trace.
    traces: Dict[Tuple[int, str], List[float]] = field(default_factory=dict)
    #: Arrivals that found no live, ready replica, per model.
    router_shed: Dict[str, int] = field(default_factory=dict)
    #: Requests routed per chip (open loop only).
    routed: Dict[int, int] = field(default_factory=dict)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    #: Router-side SLO alerts (estimated latencies, not billed ones).
    alert_count: int = 0


class ClusterRouter:
    """Routes a fleet's open-loop traffic over its replica placement."""

    def __init__(
        self,
        placement: FleetPlacement,
        profiles: Mapping[str, ModelProfile],
        balancer: Balancer,
        tracker: FluidLoadTracker,
        *,
        deadlines_ms: Optional[Mapping[str, float]] = None,
        failures: Optional[FailureScenario] = None,
        autoscaler: Optional[ReplicaAutoscaler] = None,
    ) -> None:
        self.placement = placement
        self.profiles = dict(profiles)
        self.balancer = balancer
        self.tracker = tracker
        self.deadlines_ms = dict(deadlines_ms or {})
        self.failures = failures or FailureScenario()
        self.autoscaler = autoscaler
        #: Each chip's degradation steps, sorted once for the whole sweep.
        self._steps = {
            chip: self.failures.degradation_schedule(chip)
            for chip in range(placement.n_chips)
        }
        self._crashed: set = set()
        #: ``(model, chip) -> ready_ms`` for replicas still staging their
        #: weights (new placements and crash recoveries).
        self._ready_ms: Dict[Tuple[str, int], float] = {}
        #: ``model -> (candidates, valid_from, valid_until)``: the live
        #: candidates of :meth:`live_candidates`, good for any ``now_ms``
        #: in ``[valid_from, valid_until)``.  Every replica move clears it.
        self._candidates: Dict[str, Tuple[Tuple[int, ...], float, float]] = {}
        self._update_speeds(0.0)

    # -- state ------------------------------------------------------------------

    def _update_speeds(self, now_ms: float) -> None:
        for chip in range(self.placement.n_chips):
            if chip in self._crashed:
                self.tracker.speed[chip] = 0.0
                continue
            replicas = len(self.placement.on_chip(chip))
            factor = step_factor(self._steps[chip], now_ms)
            self.tracker.speed[chip] = replicas / factor

    def live_candidates(self, model: str, now_ms: float) -> Tuple[int, ...]:
        """Chips with a live, weight-ready replica of ``model`` at ``now_ms``.

        Ascending chip order.  The answer is cached per model and holds
        until ``now_ms`` reaches the ready time of a replica that was
        still staging, so a routed request costs one lookup, not a scan
        of the placement.  Replica moves go through :meth:`add_replica`,
        :meth:`remove_replica` and :meth:`crash_chip`, which clear it.
        """
        cached = self._candidates.get(model)
        if cached is not None and cached[1] <= now_ms < cached[2]:
            return cached[0]
        live: List[int] = []
        valid_from, valid_until = -math.inf, math.inf
        for chip in self.placement.chips_of(model):
            if chip in self._crashed:
                continue
            ready = self._ready_ms.get((model, chip), 0.0)
            if ready <= now_ms:
                live.append(chip)
                valid_from = max(valid_from, ready)
            else:
                valid_until = min(valid_until, ready)
        candidates = tuple(live)
        self._candidates[model] = (candidates, valid_from, valid_until)
        return candidates

    def add_replica(
        self, model: str, chip: int, now_ms: float
    ) -> float:
        """Place one more replica; returns when its weights are staged."""
        profile = self.profiles[model]
        self.placement.add(model, chip, profile.cores)
        ready = now_ms + profile.restage_ms
        self._ready_ms[(model, chip)] = ready
        self._candidates.clear()
        self._update_speeds(now_ms)
        return ready

    def remove_replica(self, model: str, chip: int, now_ms: float) -> None:
        self.placement.remove(model, chip)
        self._ready_ms.pop((model, chip), None)
        self._candidates.clear()
        self._update_speeds(now_ms)

    def crash_chip(
        self, chip: int, now_ms: float, result: RoutingResult
    ) -> None:
        """Evict a crashed chip and re-place its replicas on survivors."""
        self._crashed.add(chip)
        self._candidates.clear()
        lost = self.placement.evict_chip(chip)
        self.tracker.reset_chip(chip)
        self._update_speeds(now_ms)
        for assignment in sorted(lost, key=lambda a: a.model):
            self._ready_ms.pop((assignment.model, chip), None)
            target = best_chip_for(
                self.placement,
                assignment.model,
                self.profiles[assignment.model].cores,
                exclude=sorted(self._crashed),
            )
            if target is None:
                result.recoveries.append(
                    RecoveryEvent(
                        time_ms=now_ms,
                        model=assignment.model,
                        from_chip=chip,
                        to_chip=None,
                        ready_ms=None,
                    )
                )
                continue
            ready = self.add_replica(assignment.model, target, now_ms)
            result.recoveries.append(
                RecoveryEvent(
                    time_ms=now_ms,
                    model=assignment.model,
                    from_chip=chip,
                    to_chip=target,
                    ready_ms=ready,
                )
            )

    # -- the sweep --------------------------------------------------------------

    def route_all(
        self,
        streams: Mapping[str, Sequence[float]],
        duration_ms: float,
    ) -> RoutingResult:
        """Route every open-loop arrival in one merged time order.

        ``streams`` maps model name to its sorted arrival times.  Crash
        events and autoscale epochs interleave at their timestamps;
        simultaneous events resolve control-first (crash, then epoch,
        then arrivals in model-name order) — fixed, documented, and
        deterministic.
        """
        result = RoutingResult()
        result.routed = {c: 0 for c in range(self.placement.n_chips)}
        model_names = sorted(streams)
        # Event ranks: 0 = crash, 1 = epoch tick, 2 = arrival.
        heap: List[Tuple[float, int, int, int]] = []
        for crash in self.failures.crashes:
            if crash.at_ms < duration_ms:
                heapq.heappush(heap, (crash.at_ms, 0, crash.chip, 0))
        if self.autoscaler is not None:
            epoch = self.autoscaler.config.epoch_ms
            k = 1
            while k * epoch < duration_ms:
                heapq.heappush(heap, (k * epoch, 1, k, 0))
                k += 1
        cursors = {m: 0 for m in model_names}
        for mi, model in enumerate(model_names):
            times = streams[model]
            if times:
                heapq.heappush(heap, (times[0], 2, mi, 0))

        while heap:
            t, rank, a, _ = heapq.heappop(heap)
            if rank == 0:
                self.crash_chip(a, t, result)
                continue
            if rank == 1:
                self._update_speeds(t)
                assert self.autoscaler is not None
                events = self.autoscaler.on_epoch(t, self)
                result.scale_events.extend(events)
                continue
            model = model_names[a]
            self._route_one(model, t, result)
            if self.autoscaler is not None:
                self.autoscaler.observe_arrival(model, t)
            cursors[model] += 1
            times = streams[model]
            if cursors[model] < len(times):
                heapq.heappush(heap, (times[cursors[model]], 2, a, 0))
        if self.autoscaler is not None:
            result.alert_count = self.autoscaler.alert_count
        return result

    def _route_one(
        self, model: str, t: float, result: RoutingResult
    ) -> None:
        candidates = self.live_candidates(model, t)
        if not candidates:
            result.router_shed[model] = result.router_shed.get(model, 0) + 1
            return
        profile = self.profiles[model]
        chip = self.balancer.choose(model, candidates, t)
        result.traces.setdefault((chip, model), []).append(t)
        result.routed[chip] += 1
        # The fluid model bills the chip the profile's service time,
        # stretched by its current degradation (slow chips accumulate
        # more load, which is exactly what steers load-aware balancers
        # away).
        est = profile.service_ms * step_factor(self._steps[chip], t)
        self.tracker.add(chip, t, est)
        if self.autoscaler is not None:
            wait = self.tracker.load_ms(chip, t) / max(
                self.tracker.speed.get(chip, 1.0), 1e-9
            )
            est_latency = wait + est
            deadline = self.deadlines_ms.get(model)
            self.autoscaler.observe_estimate(
                model, t, est_latency,
                met_deadline=(deadline is None or est_latency <= deadline),
            )


def split_user_groups(
    placement: FleetPlacement,
    model: str,
    users: int,
) -> Dict[int, int]:
    """Deterministic sticky split of a user group over replica chips.

    Users divide as evenly as possible; remainders go to the
    lowest-numbered chips.  The split happens once, before the run —
    closed-loop sessions never migrate.
    """
    chips = placement.chips_of(model)
    if not chips:
        raise SimulationError(f"model {model!r} has no replicas to host users")
    base, extra = divmod(users, len(chips))
    return {
        chip: base + (1 if i < extra else 0)
        for i, chip in enumerate(chips)
        if base + (1 if i < extra else 0) > 0
    }


__all__ = [
    "ClusterRouter",
    "RecoveryEvent",
    "RoutingResult",
    "split_user_groups",
]
