"""Publication hooks: statistics dataclasses -> the metrics registry.

The ``*Stats`` dataclasses stay the store — hot loops increment their
fields directly.  :func:`publish_stats` copies every field of one into
registry counters under a path prefix **without transforming the
numbers** — the differential tests in
``tests/telemetry/test_instrumentation.py`` pin that the registry values
are bit-identical to the fields.  A mapping field (a per-category tally)
publishes one counter per key, under the name its ``metric`` field
metadata gives.  Derived gauges (``ipc``, ``avg_latency``,
``row_hit_rate``, ...) are set explicitly at the call site.

:func:`stats_delta` is the matching field-wise difference, for publishing
one run's share of a cumulative tally.

Both are driven by :func:`dataclasses.fields`, so this module imports no
simulator code (no import cycles); the simulators import *us*.  The
publisher is a no-op on a disabled sink, so call sites need no guard of
their own at end-of-run granularity.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, TypeVar

from repro.telemetry import TelemetrySink

S = TypeVar("S")


def publish_stats(sink: TelemetrySink, prefix: str, stats: Any) -> None:
    """Publish every field of the stats dataclass ``stats`` under ``prefix``."""
    if not sink.enabled:
        return
    assert sink.registry is not None
    reg = sink.registry
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            name = f.metadata.get("metric", f.name)
            for key, n in value.items():
                reg.counter(f"{prefix}/{name}/{key}").add(n)
        else:
            reg.counter(f"{prefix}/{f.name}").add(value)


def stats_delta(after: S, before: S) -> S:
    """Field-wise ``after - before`` of two tallies of one stats type."""
    cls: Any = type(after)
    return cls(
        **{
            f.name: getattr(after, f.name) - getattr(before, f.name)
            for f in fields(cls)
        }
    )
