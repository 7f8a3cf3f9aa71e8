"""Hierarchical metrics registry: counters, gauges, histograms, timers.

Metrics are keyed by ``/``-separated paths mirroring the hardware
hierarchy, e.g. ``core/3/pipeline/raw_stall_cycles`` or
``noc/link/(0, 0)->(1, 0)/packets``.  The registry is deliberately
simulation-flavoured:

* all values come from *simulation* quantities (cycles, packets, pJ) —
  never wall clock — so two identical runs export byte-identical JSON;
* ``merge`` folds per-core registries (or :class:`PipelineStats`-style
  publications from many cores) into chip-level totals.

The registry itself performs no locking and no I/O; it is plain Python
dictionaries, cheap enough to update from simulator hot loops when
telemetry is enabled and entirely absent from them when it is not (see
:class:`repro.telemetry.NullSink`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TelemetryError
from repro.telemetry.windows import WindowedSeries, bucket_percentile, merge_moments

Number = Union[int, float]

#: Default histogram bucket upper bounds (powers of two; cycles/packet
#: counts span several orders of magnitude).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(0, 21, 2))


def _check_path(path: str) -> str:
    if not path or not isinstance(path, str):
        raise TelemetryError(f"metric path must be a non-empty string, got {path!r}")
    if path.startswith("/") or path.endswith("/") or "//" in path:
        raise TelemetryError(f"malformed metric path {path!r}")
    return path


@dataclass
class Counter:
    """A monotonically increasing tally (events, cycles, picojoules)."""

    value: Number = 0

    def add(self, n: Number = 1) -> None:
        if n < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def inc(self) -> None:
        self.add(1)


@dataclass
class Gauge:
    """A point-in-time value (queue depth, utilization, open row)."""

    value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v

    def max(self, v: Number) -> None:
        """Retain the high-water mark."""
        if v > self.value:
            self.value = v


@dataclass
class Histogram:
    """A bucketed distribution plus count/sum/min/max moments."""

    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: Optional[Number] = None
    max: Optional[Number] = None

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise TelemetryError(f"histogram bounds must be sorted: {self.bounds}")
        if not self.bucket_counts:
            # One bucket per bound plus the overflow bucket.
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, v: Number) -> None:
        self.count += 1
        self.total += v
        # Comparisons, not the min/max builtins: this runs once per
        # served request.  Same fold: a tie keeps the earlier value.
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        self.bucket_counts[bisect_right(self.bounds, v)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile estimate (``q`` in [0, 100]);
        see :func:`~repro.telemetry.windows.bucket_percentile`.  Returns
        0.0 on an empty histogram."""
        return bucket_percentile(
            self.bounds, self.bucket_counts, self.count, self.min, self.max, q
        )

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns self.

        Counts, totals and bucket tallies add; min/max fold.  Percentiles
        of the merged histogram come from the same estimator, so a fleet
        or chip-level p99 is read exactly like a per-replica one.
        """
        if other.bounds != self.bounds:
            raise TelemetryError("cannot merge histograms: bucket bounds differ")
        merge_moments(self, other)
        return self


@dataclass
class Timer:
    """Accumulated sim-time durations of a repeated activity."""

    count: int = 0
    total: float = 0.0
    min: Optional[Number] = None
    max: Optional[Number] = None

    def record(self, duration: Number) -> None:
        if duration < 0:
            raise TelemetryError(f"timer duration must be >= 0, got {duration}")
        self.count += 1
        self.total += duration
        self.min = duration if self.min is None else min(self.min, duration)
        self.max = duration if self.max is None else max(self.max, duration)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """All metrics of one telemetry session, keyed by hierarchical path."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, Timer] = {}
        self.series: Dict[str, WindowedSeries] = {}

    # -- access (create on first use) -----------------------------------------

    def counter(self, path: str) -> Counter:
        path = _check_path(path)
        metric = self.counters.get(path)
        if metric is None:
            metric = self.counters[path] = Counter()
        return metric

    def gauge(self, path: str) -> Gauge:
        path = _check_path(path)
        metric = self.gauges.get(path)
        if metric is None:
            metric = self.gauges[path] = Gauge()
        return metric

    def histogram(
        self, path: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        path = _check_path(path)
        metric = self.histograms.get(path)
        if metric is None:
            metric = self.histograms[path] = Histogram(
                bounds=tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
            )
        return metric

    def timer(self, path: str) -> Timer:
        path = _check_path(path)
        metric = self.timers.get(path)
        if metric is None:
            metric = self.timers[path] = Timer()
        return metric

    def windowed(
        self,
        path: str,
        window: float,
        bounds: Optional[Sequence[float]] = None,
    ) -> WindowedSeries:
        """A :class:`WindowedSeries` at ``path`` (create on first use).

        ``window``/``bounds`` must agree with the existing series on a
        repeat lookup — a silent shape change would corrupt the cells.
        """
        path = _check_path(path)
        metric = self.series.get(path)
        if metric is None:
            metric = self.series[path] = WindowedSeries(
                window=window,
                bounds=tuple(bounds) if bounds is not None else None,
            )
            return metric
        if metric.window != window or metric.bounds != (
            tuple(bounds) if bounds is not None else None
        ):
            raise TelemetryError(
                f"windowed series {path!r} already exists with a different "
                f"window or bounds"
            )
        return metric

    # -- export ---------------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Full deterministic export (sorted paths, JSON-ready values)."""
        return {
            "counters": {p: self.counters[p].value for p in sorted(self.counters)},
            "gauges": {p: self.gauges[p].value for p in sorted(self.gauges)},
            "histograms": {
                p: {
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for p, h in sorted(self.histograms.items())
            },
            "timers": {
                p: {"count": t.count, "total": t.total, "min": t.min, "max": t.max}
                for p, t in sorted(self.timers.items())
            },
            "series": {
                p: s.as_dict() for p, s in sorted(self.series.items())
            },
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Deterministic JSON export (sorted keys; sim-time values only)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    # -- aggregation ------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place; returns self.

        Counters, histograms, and timers add; gauges keep the maximum
        (the high-water-mark interpretation is the useful one when folding
        per-core registries into chip totals).
        """
        for path, c in other.counters.items():
            self.counter(path).value += c.value
        for path, g in other.gauges.items():
            mine = self.gauges.get(path)
            if mine is None:
                self.gauge(path).set(g.value)
            else:
                mine.max(g.value)
        for path, h in other.histograms.items():
            mine_h = self.histograms.get(path)
            if mine_h is None:
                mine_h = self.histograms[path] = Histogram(bounds=h.bounds)
            mine_h.merge(h)
        for path, s in other.series.items():
            mine_s = self.series.get(path)
            if mine_s is None:
                mine_s = self.series[path] = WindowedSeries(
                    window=s.window, bounds=s.bounds
                )
            mine_s.merge(s)
        for path, t in other.timers.items():
            mine_t = self.timer(path)
            mine_t.count += t.count
            mine_t.total += t.total
            for attr in ("min", "max"):
                theirs = getattr(t, attr)
                if theirs is None:
                    continue
                mine_v = getattr(mine_t, attr)
                pick = min if attr == "min" else max
                setattr(mine_t, attr, theirs if mine_v is None else pick(mine_v, theirs))
        return self

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """Merge many registries into a fresh one.

        An empty iterable yields an empty registry (no metrics, zero
        everywhere) — callers aggregating a variable shard count (the
        parallel sweep executor, fleet chip shards) rely on this
        identity element and must not special-case zero shards.
        """
        out = cls()
        for r in registries:
            out.merge(r)
        return out
