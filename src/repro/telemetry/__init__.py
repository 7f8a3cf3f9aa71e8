"""Unified telemetry: metrics registry + sim-time tracing for all tiers.

The simulators publish their existing ad-hoc statistics
(:class:`~repro.riscv.pipeline.PipelineStats`,
:class:`~repro.noc.mesh.NoCStats`, :class:`~repro.dram.controller.DRAMStats`,
CMem busy counters, node-group results) into one hierarchical
:class:`MetricsRegistry` and one :class:`TraceRecorder`, behind a sink
interface:

* :class:`NullSink` — the default.  ``enabled`` is ``False`` and every
  instrumented hot path guards on it, so disabled telemetry costs one
  attribute read per publication site (the fast MAC path keeps its
  speedup floor; pinned by ``tests/cmem/test_fast_path.py``).
* :class:`Telemetry` — an active sink holding a registry and a recorder.

Components accept an explicit ``telemetry=`` argument or fall back to the
ambient sink installed with :func:`use`::

    from repro import telemetry

    with telemetry.use(telemetry.Telemetry()) as t:
        node = MAICCNode(spec, weights)       # picks up the ambient sink
        node.run(ifmap)
    t.registry.to_json()                      # metrics.json
    t.trace.to_json()                         # trace.json (Perfetto-loadable)

Every timestamp is simulation time (or a documented logical clock for the
untimed functional tier) — never wall clock — so two identical runs emit
byte-identical metrics and trace files.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.telemetry.trace import TraceRecorder, validate_chrome_trace
from repro.telemetry.windows import WindowCell, WindowedSeries


class TelemetrySink:
    """Interface every instrumented component holds a reference to.

    ``enabled`` is the only attribute hot paths may touch; ``registry``
    and ``trace`` are present (``None`` on the null sink) so call sites
    can be written without isinstance checks once guarded.
    """

    enabled: bool = False
    registry: Optional[MetricsRegistry] = None
    trace: Optional[TraceRecorder] = None


class NullSink(TelemetrySink):
    """The no-op default: records nothing, costs one ``enabled`` read."""


class Telemetry(TelemetrySink):
    """An active sink: a metrics registry plus a trace recorder."""

    enabled = True

    def __init__(self) -> None:
        self.registry: MetricsRegistry = MetricsRegistry()
        self.trace: TraceRecorder = TraceRecorder()


#: The process-wide default sink (no-op).
NULL_SINK = NullSink()

_current: TelemetrySink = NULL_SINK


def current() -> TelemetrySink:
    """The ambient sink new components bind to (default: :data:`NULL_SINK`)."""
    return _current


def install(sink: Optional[TelemetrySink]) -> TelemetrySink:
    """Install ``sink`` as the ambient default; returns the previous one."""
    global _current
    previous = _current
    _current = sink if sink is not None else NULL_SINK
    return previous


@contextmanager
def use(sink: TelemetrySink) -> Iterator[TelemetrySink]:
    """Scope ``sink`` as the ambient default for components built inside."""
    previous = install(sink)
    try:
        yield sink
    finally:
        install(previous)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
    "Telemetry",
    "TelemetrySink",
    "Timer",
    "TraceRecorder",
    "WindowCell",
    "WindowedSeries",
    "current",
    "install",
    "use",
    "validate_chrome_trace",
]
