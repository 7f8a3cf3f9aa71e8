"""Replica autoscaling: offered load vs capacity, plus SLO burn.

Every routing epoch the autoscaler compares, per model, the *offered*
service time of the window (arrivals x the profile's ``service_ms``)
against the window's replica-seconds of capacity (live replicas x
epoch length; one replica drains one ms of service per ms of sim time).  Utilization above ``high_utilization`` scales up — one more
replica on the most-free chip, ready after weight re-staging;
utilization below ``low_utilization`` for ``down_epochs`` consecutive
epochs scales down, never below one replica, to keep the fleet dense.

The decision loop is also wired into the PR 8 SLO machinery: the router
feeds a :class:`~repro.obs.monitor.SLOMonitor` its *estimated* per-model
latencies (fluid queue wait + profile service time), and a ``burn_rate``
alert for a model waives the scale-up cooldown at the next epoch — a
burning model should not wait out the timer.  Estimated latencies steer
control only; billed SLOs always come from the chips' own simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import SimulationError
from repro.fleet.placement import best_chip_for
from repro.obs.monitor import SLOConfig, SLOMonitor

if TYPE_CHECKING:
    from repro.fleet.router import ClusterRouter


@dataclass(frozen=True)
class AutoscaleConfig:
    """Thresholds of the epoch-driven replica controller."""

    epoch_ms: float = 10.0
    high_utilization: float = 0.8
    low_utilization: float = 0.3
    max_replicas: Optional[int] = None
    #: Consecutive low-utilization epochs before a scale-down.
    down_epochs: int = 3
    #: Epochs to wait between scale-ups of one model (waived by a
    #: burn-rate alert).
    cooldown_epochs: int = 2

    def __post_init__(self) -> None:
        if self.epoch_ms <= 0:
            raise SimulationError(
                f"epoch must be positive, got {self.epoch_ms}"
            )
        if not 0.0 < self.low_utilization < self.high_utilization:
            raise SimulationError(
                "need 0 < low_utilization < high_utilization, got "
                f"{self.low_utilization} / {self.high_utilization}"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One applied replica-count change."""

    time_ms: float
    model: str
    direction: str          # "up" | "down"
    chip: int
    replicas: int           # live replicas after the change
    utilization: float      # the window utilization that triggered it
    burn_alert: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_ms": self.time_ms,
            "model": self.model,
            "direction": self.direction,
            "chip": self.chip,
            "replicas": self.replicas,
            "utilization": self.utilization,
            "burn_alert": self.burn_alert,
        }


@dataclass
class _ModelState:
    window_arrivals: int = 0
    low_streak: int = 0
    last_up_epoch: int = -(10**9)


class ReplicaAutoscaler:
    """Epoch-driven replica controller over the router's placement."""

    def __init__(self, config: Optional[AutoscaleConfig] = None) -> None:
        self.config = config or AutoscaleConfig()
        #: SLO monitor over the router's latency estimates, one window
        #: per epoch: its burn-rate alerts waive the scale-up cooldown.
        self.monitor = SLOMonitor(SLOConfig(window_ms=self.config.epoch_ms))
        self.alert_count = 0
        self._states: Dict[str, _ModelState] = {}
        self._burning: set = set()
        self._epoch_index = 0

    def _state(self, model: str) -> _ModelState:
        state = self._states.get(model)
        if state is None:
            state = self._states[model] = _ModelState()
        return state

    # -- router feed ------------------------------------------------------------

    def observe_arrival(self, model: str, t: float) -> None:
        self._state(model).window_arrivals += 1

    def observe_estimate(
        self, model: str, t: float, est_latency_ms: float, *, met_deadline: bool
    ) -> None:
        self.monitor.record_completion(model, t, est_latency_ms, met_deadline)

    # -- the epoch tick ---------------------------------------------------------

    def on_epoch(self, t: float, router: "ClusterRouter") -> List[ScaleEvent]:
        self._epoch_index += 1
        cfg = self.config
        fresh = self.monitor.poll(t)
        self.alert_count += len(fresh)
        for alert in fresh:
            if alert.kind == "burn_rate":
                self._burning.add(alert.tenant)
        events: List[ScaleEvent] = []
        for model in sorted(router.profiles):
            state = self._state(model)
            arrivals = state.window_arrivals
            state.window_arrivals = 0
            live = [
                chip
                for chip in router.placement.chips_of(model)
                if chip not in router._crashed
            ]
            replicas = len(live)
            if replicas == 0:
                continue
            offered_ms = arrivals * router.profiles[model].service_ms
            capacity_ms = replicas * cfg.epoch_ms
            utilization = offered_ms / capacity_ms
            burning = model in self._burning
            if utilization > cfg.high_utilization or burning:
                state.low_streak = 0
                if (
                    cfg.max_replicas is not None
                    and replicas >= cfg.max_replicas
                ):
                    continue
                if (
                    not burning
                    and self._epoch_index - state.last_up_epoch
                    < cfg.cooldown_epochs
                ):
                    continue
                target = best_chip_for(
                    router.placement,
                    model,
                    router.profiles[model].cores,
                    exclude=sorted(router._crashed),
                )
                if target is None:
                    continue
                router.add_replica(model, target, t)
                state.last_up_epoch = self._epoch_index
                events.append(
                    ScaleEvent(
                        time_ms=t,
                        model=model,
                        direction="up",
                        chip=target,
                        replicas=replicas + 1,
                        utilization=utilization,
                        burn_alert=burning,
                    )
                )
            elif utilization < cfg.low_utilization:
                state.low_streak += 1
                # Never below one replica: the model stays routable.
                if state.low_streak >= cfg.down_epochs and replicas > 1:
                    # Shrink from the highest-numbered live replica chip
                    # (deterministic; the lowest chips keep the stable
                    # replicas, matching first-fit growth).
                    victim = max(live)
                    router.remove_replica(model, victim, t)
                    state.low_streak = 0
                    events.append(
                        ScaleEvent(
                            time_ms=t,
                            model=model,
                            direction="down",
                            chip=victim,
                            replicas=replicas - 1,
                            utilization=utilization,
                        )
                    )
            else:
                state.low_streak = 0
        self._burning.clear()
        return events


__all__ = ["AutoscaleConfig", "ReplicaAutoscaler", "ScaleEvent"]
