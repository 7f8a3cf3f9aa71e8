"""SLO burn-rate monitoring over windowed serving telemetry.

:class:`SLOMonitor` watches a serving run through fixed sim-time windows
(:class:`~repro.telemetry.WindowedSeries`) and raises structured
:class:`AlertEvent` objects when the run starts eating its error budget:

* ``burn_rate`` — a window's deadline-miss fraction divided by the
  tenant's error budget reached ``burn_threshold`` (the SRE burn-rate
  rule: burn 1.0 spends budget exactly as fast as allowed, 2.0 spends it
  twice as fast).
* ``queue_growth`` — a tenant's admission-queue depth grew across
  ``queue_growth_windows`` consecutive windows: the onset of an
  arrival-rate/service-rate crossover, visible well before latencies do.
* ``resize_thrash`` — ``thrash_count`` elastic resizes landed within
  ``thrash_window_ms``: the control loop is oscillating instead of
  converging.

The monitor is deterministic: it sees only sim-time events, evaluates
each closed window exactly once (tenants in sorted order), and returns
alerts sorted by ``(time_ms, kind, tenant)`` — two identical runs emit
identical alert streams.  The serving simulator threads alerts into the
run result and the Perfetto trace (as instants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ObservabilityError
from repro.telemetry.windows import WindowedSeries

#: Window size the serving simulator uses for its registry time series
#: when no monitor dictates one.
DEFAULT_WINDOW_MS = 10.0

#: Alert kinds the monitor can raise (docs/OBSERVABILITY.md).
ALERT_KINDS = ("burn_rate", "queue_growth", "resize_thrash")

#: Tenant marker for cluster-wide alerts (resize thrash has no tenant).
CLUSTER = "*"


@dataclass(frozen=True)
class AlertEvent:
    """One structured SLO alert, stamped in sim time.

    ``value`` is the observed figure that crossed ``threshold`` — the
    burn rate, the queue depth, or the resize count — so a report can
    annotate the alert without re-deriving it.
    """

    kind: str
    tenant: str
    time_ms: float
    window_ms: float
    value: float
    threshold: float
    message: str

    def __post_init__(self) -> None:
        if self.kind not in ALERT_KINDS:
            raise ObservabilityError(
                f"unknown alert kind {self.kind!r}; choose from {ALERT_KINDS}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "tenant": self.tenant,
            "time_ms": self.time_ms,
            "window_ms": self.window_ms,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


@dataclass(frozen=True)
class SLOConfig:
    """Thresholds for the three alert detectors."""

    window_ms: float = DEFAULT_WINDOW_MS
    #: Allowed deadline-miss fraction (the error budget).  A window whose
    #: miss rate is ``burn_threshold`` times this budget alerts.
    error_budget: float = 0.05
    burn_threshold: float = 2.0
    #: Consecutive windows of strictly growing queue depth before the
    #: onset alert fires (once per growth run).
    queue_growth_windows: int = 3
    #: Resize-thrash detector: this many applied resizes inside one
    #: ``thrash_window_ms`` span.
    thrash_count: int = 3
    thrash_window_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ObservabilityError(
                f"window_ms must be positive, got {self.window_ms}"
            )
        if not 0.0 < self.error_budget <= 1.0:
            raise ObservabilityError(
                f"error_budget must be in (0, 1], got {self.error_budget}"
            )
        if self.burn_threshold <= 0:
            raise ObservabilityError(
                f"burn_threshold must be positive, got {self.burn_threshold}"
            )
        if self.queue_growth_windows < 2:
            raise ObservabilityError(
                "queue_growth_windows must be >= 2, got "
                f"{self.queue_growth_windows}"
            )
        if self.thrash_count < 2:
            raise ObservabilityError(
                f"thrash_count must be >= 2, got {self.thrash_count}"
            )
        if self.thrash_window_ms <= 0:
            raise ObservabilityError(
                f"thrash_window_ms must be positive, got {self.thrash_window_ms}"
            )


@dataclass
class _GrowthState:
    """Per-tenant queue-growth streak tracking."""

    last_depth: float = 0.0
    streak: int = 0
    alerted: bool = False


class SLOMonitor:
    """Evaluates closed windows of a serving run against SLO thresholds.

    The simulator feeds it completions, queue-depth samples, and resizes
    as they happen, and calls :meth:`poll` whenever sim time advances;
    ``poll`` evaluates every window that has fully closed since the last
    call and returns the fresh alerts.  All alerts ever raised stay in
    :attr:`alerts`.
    """

    def __init__(self, config: Optional[SLOConfig] = None) -> None:
        self.config = config or SLOConfig()
        self.alerts: List[AlertEvent] = []
        w = self.config.window_ms
        self._latency: Dict[str, WindowedSeries] = {}
        self._misses: Dict[str, WindowedSeries] = {}
        self._depth: Dict[str, WindowedSeries] = {}
        self._window = w
        self._evaluated_until = 0  # first window index not yet evaluated
        self._growth: Dict[str, _GrowthState] = {}
        self._resize_times: List[float] = []
        self._thrash_alerted_until = float("-inf")
        self._pending: List[AlertEvent] = []

    # -- event intake ---------------------------------------------------------

    def _series(
        self, table: Dict[str, WindowedSeries], tenant: str
    ) -> WindowedSeries:
        series = table.get(tenant)
        if series is None:
            series = table[tenant] = WindowedSeries(window=self._window)
        return series

    def record_completion(
        self, tenant: str, t: float, latency_ms: float, met_deadline: bool
    ) -> None:
        self._series(self._latency, tenant).observe(t, latency_ms)
        if not met_deadline:
            self._series(self._misses, tenant).observe(t, 1.0)

    def record_queue_depth(self, tenant: str, t: float, depth: int) -> None:
        self._series(self._depth, tenant).set(t, float(depth))

    def record_resize(self, t: float) -> None:
        cfg = self.config
        times = self._resize_times
        times.append(t)
        while times and times[0] < t - cfg.thrash_window_ms:
            times.pop(0)
        if len(times) >= cfg.thrash_count and t > self._thrash_alerted_until:
            # One alert per thrash burst: suppress until the current
            # window of resizes has aged out.
            self._thrash_alerted_until = t + cfg.thrash_window_ms
            self._pending.append(
                AlertEvent(
                    kind="resize_thrash",
                    tenant=CLUSTER,
                    time_ms=t,
                    window_ms=cfg.thrash_window_ms,
                    value=float(len(times)),
                    threshold=float(cfg.thrash_count),
                    message=(
                        f"{len(times)} resizes within "
                        f"{cfg.thrash_window_ms} ms"
                    ),
                )
            )

    # -- evaluation -----------------------------------------------------------

    def poll(self, now_ms: float) -> List[AlertEvent]:
        """Evaluate every window that closed before ``now_ms``.

        Returns the alerts raised by this call (already appended to
        :attr:`alerts`), sorted by ``(time_ms, kind, tenant)``.
        """
        fresh: List[AlertEvent] = list(self._pending)
        self._pending.clear()
        limit = int(now_ms // self._window)
        tenants = sorted(
            set(self._latency) | set(self._misses) | set(self._depth)
        )
        for index in range(self._evaluated_until, limit):
            for tenant in tenants:
                fresh.extend(self._evaluate(tenant, index))
        self._evaluated_until = max(self._evaluated_until, limit)
        fresh.sort(key=lambda a: (a.time_ms, a.kind, a.tenant))
        self.alerts.extend(fresh)
        return fresh

    def _evaluate(self, tenant: str, index: int) -> List[AlertEvent]:
        cfg = self.config
        end = (index + 1) * self._window
        out: List[AlertEvent] = []

        lat = self._latency.get(tenant)
        cell = lat.cells.get(index) if lat is not None else None
        if cell is not None and cell.count > 0:
            miss_series = self._misses.get(tenant)
            miss_cell = (
                miss_series.cells.get(index) if miss_series is not None else None
            )
            misses = miss_cell.count if miss_cell is not None else 0
            miss_rate = misses / cell.count
            burn = miss_rate / cfg.error_budget
            if burn >= cfg.burn_threshold:
                out.append(
                    AlertEvent(
                        kind="burn_rate",
                        tenant=tenant,
                        time_ms=end,
                        window_ms=self._window,
                        value=burn,
                        threshold=cfg.burn_threshold,
                        message=(
                            f"{misses}/{cell.count} deadline misses in the "
                            f"window burn the error budget at {burn:.2f}x"
                        ),
                    )
                )

        depth_series = self._depth.get(tenant)
        depth_cell = (
            depth_series.cells.get(index) if depth_series is not None else None
        )
        if depth_cell is not None and depth_cell.last_t >= 0.0:
            state = self._growth.setdefault(tenant, _GrowthState())
            depth = depth_cell.last
            if depth > state.last_depth:
                state.streak += 1
                if (
                    state.streak >= cfg.queue_growth_windows
                    and not state.alerted
                ):
                    state.alerted = True
                    out.append(
                        AlertEvent(
                            kind="queue_growth",
                            tenant=tenant,
                            time_ms=end,
                            window_ms=self._window,
                            value=depth,
                            threshold=float(cfg.queue_growth_windows),
                            message=(
                                f"queue depth grew {state.streak} windows "
                                f"in a row (now {depth:g})"
                            ),
                        )
                    )
            else:
                state.streak = 0
                state.alerted = False
            state.last_depth = depth
        return out


__all__ = [
    "ALERT_KINDS",
    "AlertEvent",
    "CLUSTER",
    "DEFAULT_WINDOW_MS",
    "SLOConfig",
    "SLOMonitor",
]
