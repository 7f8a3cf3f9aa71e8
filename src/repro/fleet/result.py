"""Fleet-wide results: per-chip reports folded into datacenter SLOs.

A :class:`FleetResult` holds every chip's
:class:`~repro.serving.slo.ServingRunResult` plus the router's control
log (shed counts, crash recoveries, scale events), and derives the
fleet view: per-model latency distributions merged across replicas
(bucket-by-bucket histogram addition, so fleet percentiles come from the
same estimator as per-chip ones), per-chip utilization, and the
conservation identity every run must satisfy —

    generated arrivals == completed + overrun + shed + failed
                          + router-shed

per model, with nothing silently dropped anywhere in the fabric.

``as_dict``/``to_json`` are deterministic (sorted keys, sim-time only):
two same-seed runs — serial or process-parallel — export byte-identical
JSON, which the CI ``fleet-smoke`` job pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fleet.autoscale import ScaleEvent
from repro.fleet.router import RecoveryEvent
from repro.serving.slo import SLO_LATENCY_BUCKETS_MS, ServingRunResult
from repro.telemetry import Histogram, MetricsRegistry


def merge_latency_histograms(histograms: List[Histogram]) -> Histogram:
    """Bucket-by-bucket fold of per-replica latency histograms."""
    out = Histogram(bounds=SLO_LATENCY_BUCKETS_MS)
    for h in histograms:
        out.merge(h)
    return out


@dataclass
class ModelRollup:
    """One model's fleet-wide fate, folded over its replicas."""

    model: str
    generated: int = 0
    arrivals: int = 0          # reached a chip's admission queue path
    completed: int = 0
    overrun: int = 0
    shed: int = 0              # chip-level admission shedding
    failed: int = 0            # lost to chip crashes
    router_shed: int = 0       # no live replica at routing time
    deadline_misses: int = 0
    replicas_final: int = 0
    histogram: Histogram = field(
        default_factory=lambda: Histogram(bounds=SLO_LATENCY_BUCKETS_MS)
    )

    @property
    def conserved(self) -> bool:
        return self.generated == (
            self.completed
            + self.overrun
            + self.shed
            + self.failed
            + self.router_shed
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "generated": self.generated,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "overrun": self.overrun,
            "shed": self.shed,
            "failed": self.failed,
            "router_shed": self.router_shed,
            "deadline_misses": self.deadline_misses,
            "replicas_final": self.replicas_final,
            "conserved": self.conserved,
            "latency_ms": {
                "mean": self.histogram.mean,
                "max": float(self.histogram.max)
                if self.histogram.count
                else 0.0,
                "p50": self.histogram.percentile(50.0),
                "p95": self.histogram.percentile(95.0),
                "p99": self.histogram.percentile(99.0),
            },
        }


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    scenario: str
    balancer: str
    n_chips: int
    duration_ms: float
    seed: int
    placement: Dict[str, object]
    chip_results: Dict[int, Optional[ServingRunResult]]
    models: Dict[str, ModelRollup]
    routed: Dict[int, int] = field(default_factory=dict)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    failures: Dict[str, object] = field(default_factory=dict)
    router_alert_count: int = 0
    #: Fleet telemetry rollup (``MetricsRegistry.merged`` over per-chip
    #: registries); ``None`` unless the run collected metrics.
    metrics: Optional[MetricsRegistry] = None

    # -- fleet views ------------------------------------------------------------

    @property
    def total_generated(self) -> int:
        return sum(m.generated for m in self.models.values())

    @property
    def total_completed(self) -> int:
        return sum(m.completed for m in self.models.values())

    @property
    def total_shed(self) -> int:
        return sum(m.shed for m in self.models.values())

    @property
    def total_failed(self) -> int:
        return sum(m.failed for m in self.models.values())

    @property
    def total_router_shed(self) -> int:
        return sum(m.router_shed for m in self.models.values())

    @property
    def conserved(self) -> bool:
        return all(m.conserved for m in self.models.values())

    @property
    def worst_model_p99_ms(self) -> float:
        """The slowest model's fleet-wide p99 — the headline SLO figure."""
        return max(
            (
                m.histogram.percentile(99.0)
                for m in self.models.values()
                if m.histogram.count
            ),
            default=0.0,
        )

    def fleet_percentile(self, q: float) -> float:
        """All-model, all-chip latency percentile."""
        merged = merge_latency_histograms(
            [m.histogram for m in self.models.values()]
        )
        return merged.percentile(q)

    def chip_utilization(self) -> Dict[int, float]:
        return {
            chip: (result.utilization() if result is not None else 0.0)
            for chip, result in sorted(self.chip_results.items())
        }

    # -- export -----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready export (sorted keys, sim-time only)."""
        utilization = self.chip_utilization()
        merged = merge_latency_histograms(
            [m.histogram for m in self.models.values()]
        )
        return {
            "kind": "fleet",
            "scenario": self.scenario,
            "balancer": self.balancer,
            "chips": self.n_chips,
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            "placement": self.placement,
            "models": {
                name: rollup.as_dict()
                for name, rollup in sorted(self.models.items())
            },
            "per_chip": {
                str(chip): (result.as_dict() if result is not None else None)
                for chip, result in sorted(self.chip_results.items())
            },
            "router": {
                "routed": {
                    str(chip): n for chip, n in sorted(self.routed.items())
                },
                "alerts": self.router_alert_count,
            },
            "events": {
                "failures": self.failures,
                "recoveries": [e.as_dict() for e in self.recoveries],
                "scale": [e.as_dict() for e in self.scale_events],
            },
            "utilization": {
                str(chip): u for chip, u in sorted(utilization.items())
            },
            "totals": {
                "generated": self.total_generated,
                "completed": self.total_completed,
                "shed": self.total_shed,
                "failed": self.total_failed,
                "router_shed": self.total_router_shed,
                "conserved": self.conserved,
                "worst_model_p99_ms": self.worst_model_p99_ms,
                "latency_ms": {
                    "mean": merged.mean,
                    "p50": merged.percentile(50.0),
                    "p95": merged.percentile(95.0),
                    "p99": merged.percentile(99.0),
                },
                "mean_utilization": (
                    sum(utilization.values()) / len(utilization)
                    if utilization
                    else 0.0
                ),
            },
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


__all__ = ["FleetResult", "ModelRollup", "merge_latency_histograms"]
