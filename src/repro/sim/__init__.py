"""``repro.sim`` — the fidelity-tiered simulation backend layer.

One contract (:func:`simulate` → :class:`RunReport`), four named tiers
(``analytic``, ``streaming``, ``event``, ``cycle``) selectable by string
everywhere a simulation is requested.  See ``docs/SIMULATORS.md`` for the
backend matrix and :mod:`repro.sim.xcheck` for the cross-tier
differential harness.
"""

from repro.sim.config import SimConfig
from repro.sim.report import LayerReport, RunReport, SegmentReport
from repro.sim.backends import (
    DEFAULT_BACKEND,
    AnalyticBackend,
    CycleBackend,
    EventBackend,
    ModeledBackend,
    StreamingBackend,
    available_backends,
    get_backend,
    simulate,
)
from repro.sim.xcheck import (
    DEFAULT_ENVELOPE,
    TierCheck,
    XCheckReport,
    cross_check,
)

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_ENVELOPE",
    "AnalyticBackend",
    "CycleBackend",
    "EventBackend",
    "LayerReport",
    "ModeledBackend",
    "RunReport",
    "SegmentReport",
    "SimConfig",
    "StreamingBackend",
    "TierCheck",
    "XCheckReport",
    "available_backends",
    "cross_check",
    "get_backend",
    "simulate",
]
