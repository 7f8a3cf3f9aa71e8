"""SLO accounting: per-tenant latency distributions, misses, goodput.

Latencies feed a :class:`repro.telemetry.Histogram` (half-power-of-two
millisecond buckets), so the p50/p95/p99 figures come from the same
bucket-interpolated :meth:`~repro.telemetry.Histogram.percentile`
estimator the telemetry registry exports — a serving run's JSON report
and its ``metrics.json`` agree by construction.  Exact per-request
latencies are the ``end_to_end`` of each report's :attr:`timelines`,
collected with ``collect_timelines=True``.

Everything in a report derives from simulation time, so
:meth:`ServingRunResult.as_dict` is deterministic: two runs with the same
seeds export byte-identical JSON (the CI ``serving-smoke`` job pins
this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.monitor import AlertEvent
from repro.obs.timeline import RequestTimeline
from repro.telemetry import Histogram

#: Histogram bucket upper bounds for request latencies, in milliseconds:
#: half-power-of-two steps from ~8 us to ~16 s.
SLO_LATENCY_BUCKETS_MS: Tuple[float, ...] = tuple(
    2.0 ** (i / 2.0) for i in range(-14, 29)
)


@dataclass
class TenantReport:
    """One tenant's fate over a serving run."""

    tenant: str
    arrivals: int = 0          # requests the load generator produced
    admitted: int = 0          # accepted into the queue
    shed: int = 0              # rejected by admission control
    completed: int = 0         # finished inside the run window
    overrun: int = 0           # finished after the window closed
    failed: int = 0            # lost to a chip halt (crash) — never silent
    deadline_misses: int = 0   # completed, but after their deadline
    queue_wait_ms_total: float = 0.0
    service_ms_total: float = 0.0
    histogram: Histogram = field(
        default_factory=lambda: Histogram(bounds=SLO_LATENCY_BUCKETS_MS)
    )
    #: Whole-run latency attribution (phase name -> total ms), ordered by
    #: phase position; the values left-to-right sum bit-exactly to the
    #: histogram's running latency total (see ``repro.obs.timeline``).
    attribution: Dict[str, float] = field(default_factory=dict)
    attribution_categories: Dict[str, str] = field(default_factory=dict)
    #: Per-request timelines — populated only on the collected path
    #: (telemetry enabled or ``collect_timelines=True``).
    timelines: List[RequestTimeline] = field(default_factory=list)

    def record_completion(
        self, latency_ms: float, queue_wait_ms: float, service_ms: float,
        *, met_deadline: bool,
    ) -> None:
        self.completed += 1
        self.histogram.observe(latency_ms)
        self.queue_wait_ms_total += queue_wait_ms
        self.service_ms_total += service_ms
        if not met_deadline:
            self.deadline_misses += 1

    # -- distribution ----------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Bucket-interpolated latency percentile in milliseconds."""
        return self.histogram.percentile(q)

    @property
    def p50_ms(self) -> float:
        return self.percentile(50.0)

    @property
    def p95_ms(self) -> float:
        return self.percentile(95.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile(99.0)

    @property
    def mean_latency_ms(self) -> float:
        return self.histogram.mean

    @property
    def max_latency_ms(self) -> float:
        return float(self.histogram.max) if self.histogram.count else 0.0

    # -- SLO -------------------------------------------------------------------

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed requests that finished past their deadline."""
        return self.deadline_misses / self.completed if self.completed else 0.0

    def goodput_rps(self, duration_ms: float) -> float:
        """On-time completions per second of simulated time."""
        on_time = self.completed - self.deadline_misses
        return on_time * 1000.0 / duration_ms if duration_ms > 0 else 0.0

    def as_dict(self, duration_ms: float) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "overrun": self.overrun,
            "failed": self.failed,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "goodput_rps": self.goodput_rps(duration_ms),
            "latency_ms": {
                "mean": self.mean_latency_ms,
                "max": self.max_latency_ms,
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
            },
            "queue_wait_ms_total": self.queue_wait_ms_total,
            "service_ms_total": self.service_ms_total,
            "attribution": {
                "phases": dict(self.attribution),
                "categories": dict(self.attribution_categories),
            },
        }


@dataclass
class ResizeEvent:
    """One applied elastic re-partitioning."""

    time_ms: float
    shares: Dict[str, int]
    region_starts: Dict[str, int]
    stall_ms: Dict[str, float]
    placements_recomputed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_ms": self.time_ms,
            "shares": dict(sorted(self.shares.items())),
            "region_starts": dict(sorted(self.region_starts.items())),
            "stall_ms": dict(sorted(self.stall_ms.items())),
            "placements_recomputed": self.placements_recomputed,
        }


@dataclass
class ServingRunResult:
    """Everything one online serving run produced."""

    policy: str
    discipline: str
    duration_ms: float
    reports: Dict[str, TenantReport]
    resizes: List[ResizeEvent] = field(default_factory=list)
    servers: Dict[str, str] = field(default_factory=dict)
    server_busy_ms: Dict[str, float] = field(default_factory=dict)
    final_shares: Dict[str, int] = field(default_factory=dict)
    #: Structured SLO alerts raised by the run's monitor (empty when the
    #: run had none attached).
    alerts: List[AlertEvent] = field(default_factory=list)

    @property
    def total_arrivals(self) -> int:
        return sum(r.arrivals for r in self.reports.values())

    @property
    def total_completed(self) -> int:
        return sum(r.completed for r in self.reports.values())

    @property
    def total_shed(self) -> int:
        return sum(r.shed for r in self.reports.values())

    @property
    def total_failed(self) -> int:
        return sum(r.failed for r in self.reports.values())

    @property
    def total_deadline_misses(self) -> int:
        return sum(r.deadline_misses for r in self.reports.values())

    @property
    def worst_p99_ms(self) -> float:
        """The slowest tenant's p99 — the headline multi-tenant SLO figure."""
        return max((r.p99_ms for r in self.reports.values()), default=0.0)

    def utilization(self, server: Optional[str] = None) -> float:
        """Busy fraction of one server, or the mean over all servers."""
        if self.duration_ms <= 0 or not self.server_busy_ms:
            return 0.0
        if server is not None:
            return self.server_busy_ms[server] / self.duration_ms
        return sum(self.server_busy_ms.values()) / (
            self.duration_ms * len(self.server_busy_ms)
        )

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready export (sorted keys, sim-time only)."""
        return {
            "policy": self.policy,
            "discipline": self.discipline,
            "duration_ms": self.duration_ms,
            "tenants": {
                name: report.as_dict(self.duration_ms)
                for name, report in sorted(self.reports.items())
            },
            "resizes": [event.as_dict() for event in self.resizes],
            "alerts": [alert.as_dict() for alert in self.alerts],
            "servers": dict(sorted(self.servers.items())),
            "server_busy_ms": dict(sorted(self.server_busy_ms.items())),
            "final_shares": dict(sorted(self.final_shares.items())),
            "utilization": self.utilization(),
            "totals": {
                "arrivals": self.total_arrivals,
                "completed": self.total_completed,
                "shed": self.total_shed,
                "failed": self.total_failed,
                "deadline_misses": self.total_deadline_misses,
                "worst_p99_ms": self.worst_p99_ms,
            },
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)
