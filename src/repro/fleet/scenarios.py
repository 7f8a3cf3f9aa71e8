"""Shipped fleet scenarios: smoke, contention, failure, and scale.

Every scenario is a deterministic builder — same name + chips + seed,
same bytes out — over scripted :class:`~repro.fleet.profiles.ModelProfile`
models, so the fleet layer's behaviour (routing, balancing, failures,
autoscaling) is exercised at pure event-loop speed:

* ``fleet-smoke`` — 4 chips, three mixed-rate models at comfortable
  utilization: zero shed expected; the CI job pins its JSON bytes.
* ``mixed-rate-fleet`` — 8 chips with one chip degraded 2.25x from t=0.
  The scenario that separates balancers: round-robin keeps feeding the
  slow chip and its tenants' p99 diverges; load-aware policies
  (``least-loaded``, ``p2c``) steer around it.
* ``chip-crash`` — 4 chips; chip 0 (hosting two replicas) crashes
  mid-run.  Its queued and in-flight requests land in ``failed``, its
  replicas re-place onto survivors after weight re-staging, and the
  surviving replicas absorb the traffic — bounded SLO burn, full
  conservation.
* ``autoscale-burst`` — 6 chips, one model starting at a single replica
  under a diurnal ramp; the epoch autoscaler (with SLO burn-rate
  coupling) grows the replica set to follow the wave.
* ``diurnal-million`` — 16 chips, ~80k closed-loop users plus an
  open-loop stream under a shared diurnal day-curve: >= 1M simulated
  requests end to end (the acceptance scenario for fleet scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.failures import ChipCrash, ChipDegradation, FailureScenario
from repro.fleet.profiles import ModelProfile
from repro.fleet.simulator import (
    FleetModelSpec,
    FleetSimulator,
    OpenLoopTraffic,
    UserGroupTraffic,
)
from repro.fleet.traffic import DiurnalShape


@dataclass
class FleetScenario:
    """One ready-to-run fleet configuration."""

    name: str
    models: List[FleetModelSpec]
    n_chips: int
    duration_ms: float
    balancer: str = "least-loaded"
    batch_requests: int = 1
    failures: FailureScenario = field(default_factory=FailureScenario)
    autoscale: Optional[AutoscaleConfig] = None

    def simulator(
        self,
        *,
        balancer: Optional[str] = None,
        seed: int = 0,
        workers: int = 0,
        collect_metrics: bool = False,
    ) -> FleetSimulator:
        """A :class:`FleetSimulator` of this scenario; run it over
        :attr:`duration_ms` or any other window.

        ``balancer=None`` keeps the scenario's own balancer.
        """
        return FleetSimulator(
            self.models,
            self.n_chips,
            balancer=balancer or self.balancer,
            seed=seed,
            batch_requests=self.batch_requests,
            failures=self.failures,
            autoscale=self.autoscale,
            collect_metrics=collect_metrics,
            workers=workers,
            scenario=self.name,
        )


def fleet_smoke(chips: int = 4) -> FleetScenario:
    # Seven replicas, at most one of a model per chip: their 640 cores
    # do not fit on three chips.
    if chips < 4:
        raise SimulationError("fleet-smoke needs >= 4 chips")
    models = [
        FleetModelSpec(
            name="vision",
            profile=ModelProfile(
                "vision", 0.8, cores=64, staging_ms=0.2, restage_ms=4.0
            ),
            traffic=OpenLoopTraffic(rate_hz=1800.0),
            deadline_ms=10.0,
            queue_capacity=256,
            replicas=3,
        ),
        FleetModelSpec(
            name="speech",
            profile=ModelProfile(
                "speech", 1.1, cores=96, staging_ms=0.3, restage_ms=6.0
            ),
            traffic=OpenLoopTraffic(rate_hz=700.0),
            deadline_ms=15.0,
            queue_capacity=256,
            replicas=2,
        ),
        FleetModelSpec(
            name="detect",
            profile=ModelProfile(
                "detect", 2.2, cores=128, staging_ms=0.5, restage_ms=8.0
            ),
            traffic=OpenLoopTraffic(rate_hz=360.0),
            deadline_ms=30.0,
            queue_capacity=256,
            replicas=2,
        ),
    ]
    return FleetScenario(
        name="fleet-smoke",
        models=models,
        n_chips=chips,
        duration_ms=200.0,
    )


def mixed_rate_fleet(chips: int = 8) -> FleetScenario:
    """One degraded chip under contention — the balancer separator."""
    if chips < 5:
        raise SimulationError("mixed-rate-fleet needs >= 5 chips")
    models = [
        FleetModelSpec(
            name="vision",
            profile=ModelProfile(
                "vision", 0.8, cores=64, staging_ms=0.2, restage_ms=4.0
            ),
            traffic=OpenLoopTraffic(rate_hz=2800.0),
            deadline_ms=10.0,
            replicas=4,
        ),
        FleetModelSpec(
            name="speech",
            profile=ModelProfile(
                "speech", 1.1, cores=96, staging_ms=0.3, restage_ms=6.0
            ),
            traffic=OpenLoopTraffic(rate_hz=1500.0),
            deadline_ms=15.0,
            replicas=3,
        ),
        FleetModelSpec(
            name="detect",
            profile=ModelProfile(
                "detect", 2.2, cores=128, staging_ms=0.5, restage_ms=8.0
            ),
            traffic=OpenLoopTraffic(rate_hz=400.0),
            deadline_ms=25.0,
            replicas=2,
        ),
    ]
    # Chip 0 hosts replicas under first-fit-decreasing; throttle it
    # 2.25x from the start — a blind balancer overloads it outright.
    failures = FailureScenario(
        degradations=[ChipDegradation(chip=0, from_ms=0.0, factor=2.25)]
    )
    return FleetScenario(
        name="mixed-rate-fleet",
        models=models,
        n_chips=chips,
        duration_ms=2000.0,
        failures=failures,
    )


def chip_crash(chips: int = 4) -> FleetScenario:
    if chips < 4:
        raise SimulationError("chip-crash needs >= 4 chips")
    models = [
        FleetModelSpec(
            name="vision",
            profile=ModelProfile(
                "vision", 0.8, cores=64, staging_ms=0.2, restage_ms=4.0
            ),
            traffic=OpenLoopTraffic(rate_hz=1800.0),
            deadline_ms=15.0,
            queue_capacity=256,
            replicas=3,
        ),
        FleetModelSpec(
            name="speech",
            profile=ModelProfile(
                "speech", 1.1, cores=96, staging_ms=0.3, restage_ms=6.0
            ),
            traffic=OpenLoopTraffic(rate_hz=700.0),
            deadline_ms=20.0,
            queue_capacity=256,
            replicas=2,
        ),
    ]
    failures = FailureScenario(crashes=[ChipCrash(chip=0, at_ms=400.0)])
    return FleetScenario(
        name="chip-crash",
        models=models,
        n_chips=chips,
        duration_ms=1000.0,
        failures=failures,
    )


def autoscale_burst(chips: int = 6) -> FleetScenario:
    """A diurnal ramp against one starting replica: the scaler follows."""
    if chips < 3:
        raise SimulationError("autoscale-burst needs >= 3 chips")
    shape = DiurnalShape(period_ms=600.0, floor=0.1)
    models = [
        FleetModelSpec(
            name="assist",
            profile=ModelProfile(
                "assist", 1.0, cores=96, staging_ms=0.25, restage_ms=5.0
            ),
            traffic=OpenLoopTraffic(rate_hz=2500.0, shape=shape),
            deadline_ms=12.0,
            queue_capacity=512,
            replicas=1,
        ),
    ]
    return FleetScenario(
        name="autoscale-burst",
        models=models,
        n_chips=chips,
        duration_ms=600.0,
        autoscale=AutoscaleConfig(
            epoch_ms=10.0,
            high_utilization=0.75,
            low_utilization=0.25,
            max_replicas=chips,
            down_epochs=4,
            cooldown_epochs=2,
        ),
    )


def diurnal_million(chips: int = 16) -> FleetScenario:
    """>= 1M simulated requests: closed-loop users + an open stream.

    Sized so one replica of each model lives on every chip and the
    fleet runs near 70% mean utilization over one simulated day-curve
    (requests scale linearly with ``chips``).
    """
    if chips < 2:
        raise SimulationError("diurnal-million needs >= 2 chips")
    duration = 36000.0
    shape = DiurnalShape(period_ms=duration, floor=0.3)
    users = 5000 * chips
    models = [
        FleetModelSpec(
            name="chat",
            profile=ModelProfile(
                "chat", 0.45, cores=120, staging_ms=0.1, restage_ms=5.0
            ),
            traffic=UserGroupTraffic(
                users=users, think_ms=2200.0, shape=shape
            ),
            deadline_ms=8.0,
            replicas=chips,
        ),
        FleetModelSpec(
            name="embed",
            profile=ModelProfile(
                "embed", 0.3, cores=80, staging_ms=0.05, restage_ms=3.0
            ),
            traffic=OpenLoopTraffic(rate_hz=750.0 * chips, shape=shape),
            deadline_ms=5.0,
            queue_capacity=512,
            replicas=chips,
        ),
    ]
    return FleetScenario(
        name="diurnal-million",
        models=models,
        n_chips=chips,
        duration_ms=duration,
    )


#: Scenario builders by name; each builder's ``chips`` default is the
#: scenario's default fleet size.
FLEET_SCENARIOS: Dict[str, Callable[..., FleetScenario]] = {
    "fleet-smoke": fleet_smoke,
    "mixed-rate-fleet": mixed_rate_fleet,
    "chip-crash": chip_crash,
    "autoscale-burst": autoscale_burst,
    "diurnal-million": diurnal_million,
}


def build_scenario(name: str, chips: Optional[int] = None) -> FleetScenario:
    try:
        builder = FLEET_SCENARIOS[name]
    except KeyError:
        raise SimulationError(
            f"unknown fleet scenario {name!r}; choose from "
            f"{sorted(FLEET_SCENARIOS)}"
        )
    return builder() if chips is None else builder(chips)


__all__ = [
    "FLEET_SCENARIOS",
    "FleetScenario",
    "autoscale_burst",
    "build_scenario",
    "chip_crash",
    "diurnal_million",
    "fleet_smoke",
    "mixed_rate_fleet",
]
