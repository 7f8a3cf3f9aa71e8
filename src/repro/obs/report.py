"""The run-report artifact: one JSON document describing a whole run.

``scripts/report.py`` renders a serving, fleet, cross-tier, or
design-space-exploration run into two artifacts sharing one source of
truth:

* a **JSON document** under the ``maicc-obs-report/1`` schema — the
  machine-readable record, validated by :func:`validate_report`, which
  the CI ``obs-smoke`` and ``dse-smoke`` jobs run on generated reports;
* a **self-contained HTML dashboard** (:mod:`repro.obs.html`) rendered
  as a pure function of that document.

Both are byte-deterministic: every number is simulation-derived, every
mapping is emitted in sorted order, and nothing reads the wall clock —
the CI job diffs two generated reports byte-for-byte.

The paper-table replicas in :mod:`repro.experiments` deliberately do
NOT emit this schema: those are byte-pinned plain-text artifacts whose
format is frozen against checked-in expectations (see the rationale in
``repro/experiments/report.py``).  Their underlying sweep data reaches
this schema through the ``dse`` kind instead — the experiment drivers
are thin :class:`repro.dse.SweepSpec` instances, so ``scripts/report.py
dse`` charts the same numbers the pinned tables print.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.timeline import PHASE_CATEGORIES, timeline_from_report
from repro.serving.slo import ServingRunResult
from repro.sim.xcheck import XCheckReport

if TYPE_CHECKING:
    from repro.dse.result import DSEResult
    from repro.fleet.result import FleetResult

#: The report schema identifier; bump the suffix on breaking changes.
SCHEMA = "maicc-obs-report/1"

REPORT_KINDS = ("serving", "xcheck", "fleet", "dse")


def build_serving_report(
    result: ServingRunResult,
    *,
    scenario: str,
    window_ms: float,
    series: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """The serving-run report document.

    ``series`` is the windowed-series section of a
    :meth:`repro.telemetry.MetricsRegistry.as_dict` export (path ->
    series dict); pass the run's registry series so the dashboard can
    draw its time panels.
    """
    return {
        "schema": SCHEMA,
        "kind": "serving",
        "meta": {
            "scenario": scenario,
            "policy": result.policy,
            "discipline": result.discipline,
            "duration_ms": result.duration_ms,
            "window_ms": window_ms,
        },
        "serving": result.as_dict(),
        "series": {path: dict(data) for path, data in sorted(
            (series or {}).items()
        )},
        "alerts": [alert.as_dict() for alert in result.alerts],
    }


def build_xcheck_report(xchecks: Sequence[XCheckReport]) -> Dict[str, object]:
    """The cross-tier report document.

    Each check's :attr:`~repro.sim.xcheck.XCheckReport.reports` (every
    tier it ran, the reference included) is decomposed through
    :func:`repro.obs.timeline.timeline_from_report`, so the per-phase
    cycle table and the serving attribution derive from the same code
    path.
    """
    workloads: Dict[str, object] = {}
    for xcheck in xchecks:
        tier_runs = xcheck.reports
        tiers: Dict[str, object] = {}
        for backend in sorted(tier_runs):
            timeline = timeline_from_report(tier_runs[backend])
            tiers[backend] = {
                "total_cycles": tier_runs[backend].total_cycles,
                "latency_ms": tier_runs[backend].latency_ms,
                "phases": {p.name: p.duration for p in timeline.phases},
                "categories": {p.name: p.category for p in timeline.phases},
            }
        workloads[xcheck.network] = {
            "xcheck": xcheck.as_dict(),
            "tiers": tiers,
        }
    return {
        "schema": SCHEMA,
        "kind": "xcheck",
        "meta": {"workloads": sorted(workloads)},
        "workloads": workloads,
    }


def build_fleet_report(result: "FleetResult") -> Dict[str, object]:
    """The fleet-run report document.

    The ``fleet`` section is the :meth:`~repro.fleet.result.FleetResult.as_dict`
    export verbatim — per-model rollups merged across replicas, every
    chip's full :class:`~repro.serving.slo.ServingRunResult`, the
    router's control log (recoveries, scale events, shed), and per-chip
    utilization — so the dashboard and the JSON consumers read one
    deterministic shape.
    """
    fleet = result.as_dict()
    return {
        "schema": SCHEMA,
        "kind": "fleet",
        "meta": {
            "scenario": fleet["scenario"],
            "balancer": fleet["balancer"],
            "chips": fleet["chips"],
            "duration_ms": fleet["duration_ms"],
            "seed": fleet["seed"],
        },
        "fleet": fleet,
    }


def build_dse_report(result: "DSEResult") -> Dict[str, object]:
    """The design-space-exploration report document.

    The ``dse`` section is the :meth:`~repro.dse.result.DSEResult.as_dict`
    export verbatim — every expanded point with its status, the
    per-(network, backend) Pareto frontiers, the consolidated
    latency/energy/area tables with their ``*_vs_ref`` columns, and the
    baseline section — so the dashboard and the JSON artifact read one
    deterministic shape.
    """
    dse = result.as_dict()
    return {
        "schema": SCHEMA,
        "kind": "dse",
        "meta": {
            "sweep": dse["sweep"],
            "points": len(result.points),
            "counts": dse["counts"],
            "axes": dse["axes"],
        },
        "dse": dse,
    }


def _require(doc: Mapping[str, object], key: str, kind: type) -> object:
    if key not in doc:
        raise ObservabilityError(f"report is missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ObservabilityError(
            f"report key {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def validate_report(doc: Mapping[str, object]) -> None:
    """Structural validation of a report document (CI gates on this).

    Checks the schema tag, the section layout of each report kind, the
    alert records, and that every attribution phase carries a category
    from the fixed taxonomy.  Raises :class:`ObservabilityError` on the
    first violation.
    """
    schema = _require(doc, "schema", str)
    if schema != SCHEMA:
        raise ObservabilityError(
            f"unsupported report schema {schema!r} (expected {SCHEMA!r})"
        )
    kind = _require(doc, "kind", str)
    if kind not in REPORT_KINDS:
        raise ObservabilityError(
            f"unknown report kind {kind!r}; choose from {REPORT_KINDS}"
        )
    _require(doc, "meta", dict)
    if kind == "serving":
        serving = _require(doc, "serving", dict)
        tenants = _require(serving, "tenants", dict)
        for name, tenant in tenants.items():
            if not isinstance(tenant, dict):
                raise ObservabilityError(f"tenant {name!r} must be a dict")
            attribution = _require(tenant, "attribution", dict)
            phases = _require(attribution, "phases", dict)
            categories = _require(attribution, "categories", dict)
            if set(phases) != set(categories):
                raise ObservabilityError(
                    f"tenant {name!r}: attribution phases and categories "
                    "disagree"
                )
            for phase, category in categories.items():
                if category not in PHASE_CATEGORIES:
                    raise ObservabilityError(
                        f"tenant {name!r} phase {phase!r} has unknown "
                        f"category {category!r}"
                    )
        _require(doc, "series", dict)
        alerts = _require(doc, "alerts", list)
        for alert in alerts:
            if not isinstance(alert, dict):
                raise ObservabilityError("alert records must be dicts")
            for key in ("kind", "tenant", "time_ms", "value", "threshold"):
                if key not in alert:
                    raise ObservabilityError(
                        f"alert record is missing key {key!r}"
                    )
    elif kind == "fleet":
        fleet = _require(doc, "fleet", dict)
        models = _require(fleet, "models", dict)
        for name, model in models.items():
            if not isinstance(model, dict):
                raise ObservabilityError(f"model {name!r} must be a dict")
            for key in (
                "generated", "completed", "overrun", "shed", "failed",
                "router_shed", "conserved", "latency_ms",
            ):
                if key not in model:
                    raise ObservabilityError(
                        f"model {name!r} is missing key {key!r}"
                    )
        per_chip = _require(fleet, "per_chip", dict)
        for chip, result in per_chip.items():
            if result is not None and not isinstance(result, dict):
                raise ObservabilityError(
                    f"chip {chip!r} result must be a dict or null"
                )
        _require(fleet, "router", dict)
        events = _require(fleet, "events", dict)
        for key in ("failures", "recoveries", "scale"):
            if key not in events:
                raise ObservabilityError(
                    f"fleet events section is missing key {key!r}"
                )
        _require(fleet, "utilization", dict)
        totals = _require(fleet, "totals", dict)
        for key in ("generated", "completed", "conserved",
                    "worst_model_p99_ms", "latency_ms"):
            if key not in totals:
                raise ObservabilityError(
                    f"fleet totals section is missing key {key!r}"
                )
    elif kind == "dse":
        dse = _require(doc, "dse", dict)
        _require(dse, "counts", dict)
        points = _require(dse, "points", list)
        for point in points:
            if not isinstance(point, dict):
                raise ObservabilityError("dse point records must be dicts")
            for key in ("point_id", "axes", "status"):
                if key not in point:
                    raise ObservabilityError(
                        f"dse point record is missing key {key!r}"
                    )
        pareto = _require(dse, "pareto", dict)
        ids = {p["point_id"] for p in points}  # type: ignore[index]
        for group, members in pareto.items():
            if not isinstance(members, list):
                raise ObservabilityError(
                    f"pareto group {group!r} must be a list of point ids"
                )
            for pid in members:
                if pid not in ids:
                    raise ObservabilityError(
                        f"pareto group {group!r} references unknown "
                        f"point {pid!r}"
                    )
        tables = _require(dse, "tables", dict)
        for name in ("latency", "energy", "area"):
            if name not in tables:
                raise ObservabilityError(
                    f"dse tables section is missing table {name!r}"
                )
            if not isinstance(tables[name], list):
                raise ObservabilityError(
                    f"dse table {name!r} must be a list of rows"
                )
        _require(dse, "baselines", dict)
    else:
        workloads = _require(doc, "workloads", dict)
        for name, workload in workloads.items():
            if not isinstance(workload, dict):
                raise ObservabilityError(f"workload {name!r} must be a dict")
            _require(workload, "xcheck", dict)
            tiers = _require(workload, "tiers", dict)
            for backend, tier in tiers.items():
                if not isinstance(tier, dict):
                    raise ObservabilityError(
                        f"tier {backend!r} must be a dict"
                    )
                for key in ("total_cycles", "latency_ms", "phases"):
                    if key not in tier:
                        raise ObservabilityError(
                            f"tier {backend!r} is missing key {key!r}"
                        )


__all__ = [
    "REPORT_KINDS",
    "SCHEMA",
    "build_dse_report",
    "build_fleet_report",
    "build_serving_report",
    "build_xcheck_report",
    "validate_report",
]
