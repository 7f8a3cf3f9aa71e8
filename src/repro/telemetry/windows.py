"""Windowed time-series metrics over fixed sim-time windows.

A :class:`WindowedSeries` partitions simulation time into fixed-width
windows (``[k*w, (k+1)*w)``) and accumulates observations per window, so
an end-of-run aggregate ("p99 was 4 ms") becomes a *time series* ("p99
was 0.8 ms until t=60 ms, then the burst arrived").  It is the substrate
of the SLO burn-rate detector in :mod:`repro.obs` and the time-series
panels of ``scripts/report.py``.

One series records one quantity in one of three shapes, all held in the
same per-window cell:

* **observations** (:meth:`observe`) — count / total / min / max per
  window, plus bucket counts when the series was created with histogram
  ``bounds`` (per-window percentiles use :func:`bucket_percentile`, the
  estimator :class:`~repro.telemetry.registry.Histogram` uses too);
* **gauge samples** (:meth:`set`) — the last sampled value per window
  (queue depth, shares), with the sample time kept so merges are
  order-independent;
* **busy ranges** (:meth:`add_range`) — a ``[t0, t1)`` interval split
  across the windows it overlaps (server busy time -> per-window
  utilization).

Everything is simulation-time driven and the export is sorted, so two
identical runs produce byte-identical snapshots.  :meth:`merge` folds a
split run's parts into the whole-run series (cells add pointwise; gauge
cells keep the later sample) — the property the future process-parallel
runner relies on, pinned by ``tests/telemetry/test_windows.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TelemetryError

if TYPE_CHECKING:
    from repro.telemetry.registry import Histogram

Number = Union[int, float]


def bucket_percentile(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    lo_obs: Optional[Number],
    hi_obs: Optional[Number],
    q: float,
) -> float:
    """Bucket-interpolated percentile estimate (``q`` in [0, 100]).

    ``counts`` holds one tally per bucket: bucket ``i`` spans
    ``(bounds[i-1], bounds[i]]`` and the last one is the overflow bucket.
    Walks the cumulative counts to the bucket containing the ``q``-th
    percentile rank and interpolates linearly inside it — the standard
    Prometheus-style estimator.  The first bucket's lower edge and the
    overflow bucket's upper edge come from the observed ``lo_obs`` /
    ``hi_obs`` (min/max), so an estimate never leaves the observed value
    range.  Returns 0.0 when ``count`` is 0.  The one estimator behind
    :class:`~repro.telemetry.registry.Histogram`, :class:`WindowedSeries`
    and the dashboard's per-window panels.
    """
    if not 0.0 <= q <= 100.0:
        raise TelemetryError(f"percentile must be in [0, 100], got {q}")
    if count == 0:
        return 0.0
    assert lo_obs is not None and hi_obs is not None
    lo_obs, hi_obs = float(lo_obs), float(hi_obs)
    rank = q / 100.0 * count
    cumulative = 0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        below = cumulative
        cumulative += n
        if cumulative >= rank:
            lo = max(bounds[i - 1] if i > 0 else lo_obs, lo_obs)
            hi = min(bounds[i] if i < len(bounds) else hi_obs, hi_obs)
            if hi <= lo:
                return float(lo)
            fraction = (rank - below) / n
            # The ends of the span are exact — `lo + (hi - lo) *
            # fraction` can round an ulp off at fraction 1.0, and p100
            # must be exactly the observed max.  The min() keeps
            # interior rounding inside the span too.
            if fraction >= 1.0:
                return float(hi)
            return float(min(lo + (hi - lo) * fraction, hi))
    return hi_obs


def merge_moments(
    into: Union[WindowCell, Histogram], other: Union[WindowCell, Histogram]
) -> None:
    """Fold ``other``'s count, total, min, max and bucket tallies into
    ``into`` — the one merge rule of histograms and window cells."""
    into.count += other.count
    into.total += other.total
    if other.min is not None:
        into.min = other.min if into.min is None else min(into.min, other.min)
    if other.max is not None:
        into.max = other.max if into.max is None else max(into.max, other.max)
    if other.bucket_counts is not None:
        assert into.bucket_counts is not None
        for i, n in enumerate(other.bucket_counts):
            into.bucket_counts[i] += n


@dataclass
class WindowCell:
    """Accumulated state of one fixed sim-time window."""

    count: int = 0
    total: float = 0.0
    min: Optional[Number] = None
    max: Optional[Number] = None
    #: Last gauge sample in the window and the sim time it was taken at
    #: (merge keeps the later one, so split runs fold deterministically).
    last: Optional[Number] = None
    last_t: float = -1.0
    #: Busy sim-time accumulated by :meth:`WindowedSeries.add_range`.
    busy: float = 0.0
    #: Histogram bucket tallies (only when the series carries bounds).
    bucket_counts: Optional[List[int]] = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "last_t": self.last_t,
            "busy": self.busy,
        }
        if self.bucket_counts is not None:
            out["bucket_counts"] = list(self.bucket_counts)
        return out


@dataclass
class WindowedSeries:
    """One metric accumulated into fixed sim-time windows.

    ``window`` is the width in the series' native time unit (the serving
    stack uses milliseconds).  ``bounds`` turns each cell into a bucketed
    histogram so :meth:`percentile` works per window.
    """

    window: float
    bounds: Optional[Tuple[float, ...]] = None
    cells: Dict[int, WindowCell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise TelemetryError(
                f"window width must be positive, got {self.window}"
            )
        if self.bounds is not None:
            self.bounds = tuple(self.bounds)
            if list(self.bounds) != sorted(self.bounds):
                raise TelemetryError(
                    f"series bounds must be sorted: {self.bounds}"
                )

    # -- indexing ---------------------------------------------------------------

    def index_of(self, t: float) -> int:
        """The window index containing sim time ``t``."""
        if t < 0:
            raise TelemetryError(f"series time must be >= 0, got {t}")
        return int(t // self.window)

    def window_start(self, index: int) -> float:
        return index * self.window

    def cell(self, index: int) -> WindowCell:
        cell = self.cells.get(index)
        if cell is None:
            cell = self.cells[index] = WindowCell(
                bucket_counts=(
                    [0] * (len(self.bounds) + 1)
                    if self.bounds is not None
                    else None
                )
            )
        return cell

    # -- recording --------------------------------------------------------------

    def observe(self, t: float, v: Number = 1) -> None:
        """Record one observation of value ``v`` at sim time ``t``."""
        cell = self.cell(self.index_of(t))
        cell.count += 1
        cell.total += v
        cell.min = v if cell.min is None else min(cell.min, v)
        cell.max = v if cell.max is None else max(cell.max, v)
        if cell.bucket_counts is not None:
            assert self.bounds is not None
            cell.bucket_counts[bisect_right(self.bounds, v)] += 1

    def set(self, t: float, v: Number) -> None:
        """Record a gauge sample at sim time ``t`` (last-in-window wins)."""
        cell = self.cell(self.index_of(t))
        if t >= cell.last_t:
            cell.last = v
            cell.last_t = t
        cell.count += 1
        cell.min = v if cell.min is None else min(cell.min, v)
        cell.max = v if cell.max is None else max(cell.max, v)

    def add_range(self, t0: float, t1: float) -> None:
        """Distribute the interval ``[t0, t1)`` across the windows it spans.

        Each overlapped window's ``busy`` grows by the overlap length —
        feeding per-window utilization (`busy / window`).
        """
        if t1 < t0:
            raise TelemetryError(f"range end {t1} precedes start {t0}")
        if t1 == t0:
            return
        first = self.index_of(t0)
        last = self.index_of(t1)
        if t1 == self.window_start(last):
            last -= 1  # half-open: an end on a boundary stays left of it
        for k in range(first, last + 1):
            lo = max(t0, self.window_start(k))
            hi = min(t1, self.window_start(k + 1))
            self.cell(k).busy += hi - lo

    # -- reading ----------------------------------------------------------------

    def indices(self) -> List[int]:
        return sorted(self.cells)

    def rate(self, index: int) -> float:
        """Observations per time unit in the window (throughput)."""
        cell = self.cells.get(index)
        return cell.count / self.window if cell is not None else 0.0

    def utilization(self, index: int) -> float:
        """Busy fraction of the window (from :meth:`add_range` intervals)."""
        cell = self.cells.get(index)
        return cell.busy / self.window if cell is not None else 0.0

    def percentile(self, index: int, q: float) -> float:
        """Bucket-interpolated percentile of one window's observations
        (:func:`bucket_percentile`); requires the series to carry
        ``bounds``.  Returns 0.0 for an empty window."""
        if self.bounds is None:
            raise TelemetryError("percentile needs a series with bounds")
        cell = self.cells.get(index) or WindowCell()
        return bucket_percentile(
            self.bounds, cell.bucket_counts or (), cell.count,
            cell.min, cell.max, q,
        )

    # -- export / aggregation ----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready export (cells sorted by window index)."""
        return {
            "window": self.window,
            "bounds": list(self.bounds) if self.bounds is not None else None,
            "cells": {
                str(k): self.cells[k].as_dict() for k in sorted(self.cells)
            },
        }

    def merge(self, other: "WindowedSeries") -> "WindowedSeries":
        """Fold ``other`` into this series in place; returns self.

        Each window's moments fold as a histogram's do
        (:func:`merge_moments`), busy time adds, and the gauge sample
        with the later ``last_t`` wins — so merging a run split at any
        point reproduces the whole-run series: every discrete field
        bit-exactly, the running float sums up to summation-order ulps
        (pinned by the split/merge property test).
        """
        if other.window != self.window:
            raise TelemetryError(
                f"cannot merge series: window {other.window} != {self.window}"
            )
        if other.bounds != self.bounds:
            raise TelemetryError(
                "cannot merge series: histogram bounds differ"
            )
        for k, theirs in other.cells.items():
            mine = self.cell(k)
            merge_moments(mine, theirs)
            mine.busy += theirs.busy
            if theirs.last_t >= mine.last_t:
                mine.last = theirs.last
                mine.last_t = theirs.last_t
        return self


__all__ = [
    "WindowCell",
    "WindowedSeries",
    "bucket_percentile",
    "merge_moments",
]
