"""Deterministic self-contained HTML dashboard for a run report.

:func:`render_html` is a pure function of a ``maicc-obs-report/1``
document (:mod:`repro.obs.report`): same document, same bytes.  The page
embeds everything — styles and inline SVG charts; no scripts, no network
fetches — so a report file is a complete artifact that renders anywhere.

Chart language (the repo's data-viz conventions):

* Categorical colors come from a validated palette in fixed slot order —
  phase categories map to slots by taxonomy position, tenants by sorted
  name — never cycled or re-ranked on filtering.
* Marks are thin: bars <= 20px with a 2px surface gap between stacked
  segments and a 4px rounded data-end, 2px lines, hairline solid
  gridlines one step off the surface.
* Identity is never color-alone: every multi-series chart has a legend,
  and every chart has a table twin carrying the exact values.
* Dark mode is a selected palette (per-mode steps of the same hues), not
  an automatic inversion; native ``<title>`` tooltips supplement, never
  gate, the tables.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.obs.monitor import CLUSTER
from repro.obs.timeline import PHASE_CATEGORIES
from repro.telemetry.windows import bucket_percentile

#: Categorical slots (light, dark) in the palette's validated order; the
#: order is the CVD-safety mechanism — assign by position, never cycle.
CATEGORICAL = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
)

#: Status palette (fixed, never themed) for alert annotations.
ALERT_COLORS = {
    "burn_rate": "#d03b3b",      # critical
    "queue_growth": "#ec835a",   # serious
    "resize_thrash": "#fab219",  # warning
}
ALERT_ICONS = {"burn_rate": "●", "queue_growth": "▲", "resize_thrash": "◆"}

_PLOT_W = 640
_PLOT_H = 120
_GUTTER_L = 56
_GUTTER_B = 24


def _fmt(value: object) -> str:
    """Stable human formatting for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _category_class(category: str) -> str:
    return f"c-{category}"


def _tenant_slots(tenants: Sequence[str]) -> Dict[str, int]:
    """Fixed slot per tenant (sorted order; capped at the palette)."""
    return {name: i % len(CATEGORICAL) for i, name in enumerate(sorted(tenants))}


def _style(tenants: Sequence[str]) -> str:
    light: List[str] = []
    dark: List[str] = []
    for i, category in enumerate(PHASE_CATEGORIES):
        lo, hi = CATEGORICAL[i % len(CATEGORICAL)]
        light.append(f".c-{category}{{fill:{lo}}}")
        dark.append(f".c-{category}{{fill:{hi}}}")
    for name, slot in _tenant_slots(tenants).items():
        lo, hi = CATEGORICAL[slot]
        light.append(f".t-{slot}{{stroke:{lo}}} .tf-{slot}{{fill:{lo}}}")
        dark.append(f".t-{slot}{{stroke:{hi}}} .tf-{slot}{{fill:{hi}}}")
    for kind, color in sorted(ALERT_COLORS.items()):
        light.append(f".a-{kind}{{stroke:{color}}} .ai-{kind}{{color:{color}}}")
        dark.append(f".a-{kind}{{stroke:{color}}} .ai-{kind}{{color:{color}}}")
    return f"""
:root {{ color-scheme: light dark; }}
body {{
  margin: 0; padding: 24px;
  background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
.card {{
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 16px 20px; margin: 0 0 16px 0;
  max-width: 760px;
}}
h1 {{ font-size: 20px; margin: 0 0 4px 0; }}
h2 {{ font-size: 15px; margin: 0 0 10px 0; }}
.meta {{ color: #52514e; margin: 0 0 16px 0; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; max-width: 760px;
          margin-bottom: 16px; }}
.tile {{ background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
         border-radius: 8px; padding: 10px 16px; min-width: 96px; }}
.tile .label {{ color: #52514e; font-size: 12px; }}
.tile .value {{ font-size: 24px; font-weight: 600; }}
table {{ border-collapse: collapse; width: 100%; margin-top: 8px; }}
th {{ text-align: left; color: #52514e; font-weight: 500; font-size: 12px;
      border-bottom: 1px solid #c3c2b7; padding: 4px 8px; }}
td {{ border-bottom: 1px solid #e1e0d9; padding: 4px 8px;
      font-variant-numeric: tabular-nums; }}
.legend {{ display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0;
           color: #52514e; font-size: 12px; align-items: center; }}
.key {{ display: inline-block; width: 10px; height: 10px;
        border-radius: 2px; margin-right: 5px; vertical-align: -1px; }}
svg text {{ fill: #898781; font-size: 11px; }}
svg .grid {{ stroke: #e1e0d9; stroke-width: 1; }}
svg .axis {{ stroke: #c3c2b7; stroke-width: 1; }}
svg .line {{ fill: none; stroke-width: 2; stroke-linejoin: round;
             stroke-linecap: round; }}
svg .alert {{ stroke-width: 1; }}
{' '.join(light)}
@media (prefers-color-scheme: dark) {{
  body {{ background: #0d0d0d; color: #ffffff; }}
  .card, .tile {{ background: #1a1a19; border-color: rgba(255,255,255,0.10); }}
  .meta, .tile .label, th, .legend {{ color: #c3c2b7; }}
  td {{ border-bottom-color: #2c2c2a; }}
  th {{ border-bottom-color: #383835; }}
  svg .grid {{ stroke: #2c2c2a; }}
  svg .axis {{ stroke: #383835; }}
  {' '.join(dark)}
}}
"""


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """A legend row of (css-fill-class, label) swatches."""
    keys = "".join(
        f'<span><svg width="10" height="10" class="keysvg">'
        f'<rect width="10" height="10" rx="2" class="{escape(cls)}"/></svg> '
        f"{escape(label)}</span>"
        for cls, label in entries
    )
    return f'<div class="legend">{keys}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(_fmt(v))}</td>" for v in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


# -- stacked attribution bars -------------------------------------------------


def _stacked_bar_svg(
    rows: Sequence[Tuple[str, List[Tuple[str, float]]]],
) -> str:
    """Horizontal stacked bars: one row per label, segments by category.

    Widths are normalized per row (each bar shows its row's composition);
    2px surface gaps separate segments and the data-end is rounded 4px.
    """
    bar_h, row_h, label_w = 18, 30, 110
    width = 640
    height = row_h * len(rows) + 4
    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="latency attribution stacked bars">'
    ]
    span = width - label_w - 8
    for r, (label, segments) in enumerate(rows):
        total = sum(v for _, v in segments)
        y = 4 + r * row_h
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
            f'text-anchor="end">{escape(label)}</text>'
        )
        if total <= 0:
            continue
        drawn = [(c, v) for c, v in segments if v > 0]
        x = float(label_w)
        for i, (category, value) in enumerate(drawn):
            w = span * (value / total)
            gap = 2.0 if i < len(drawn) - 1 else 0.0
            w_draw = max(w - gap, 0.5)
            last = i == len(drawn) - 1
            title = (
                f"<title>{escape(label)} · {escape(category)}: "
                f"{_fmt(value)} ({_fmt(100.0 * value / total)}%)</title>"
            )
            if last and w_draw > 4:
                # Rounded 4px data-end, square at the baseline side.
                d = (
                    f"M{x:.2f} {y} h{w_draw - 4:.2f} q4 0 4 4 "
                    f"v{bar_h - 8} q0 4 -4 4 h-{w_draw - 4:.2f} z"
                )
                parts.append(
                    f'<path d="{d}" class="{_category_class(category)}">'
                    f"{title}</path>"
                )
            else:
                parts.append(
                    f'<rect x="{x:.2f}" y="{y}" width="{w_draw:.2f}" '
                    f'height="{bar_h}" class="{_category_class(category)}">'
                    f"{title}</rect>"
                )
            x += w
    parts.append("</svg>")
    return "".join(parts)


# -- time-series panels -------------------------------------------------------


def _line_panel(
    title: str,
    unit: str,
    duration_ms: float,
    series: Mapping[str, List[Tuple[float, float]]],
    slots: Mapping[str, int],
    alerts: Sequence[Mapping[str, object]],
) -> str:
    """One small-multiples panel: 2px lines per tenant over sim time,
    hairline grid, alert instants as thin status-colored verticals."""
    w, h = _PLOT_W, _PLOT_H + _GUTTER_B
    top = 8
    peak = 0.0
    for points in series.values():
        for _, v in points:
            peak = max(peak, v)
    peak = peak if peak > 0 else 1.0
    y_scale = (_PLOT_H - top) / (peak * 1.05)

    def xp(t: float) -> float:
        return _GUTTER_L + (w - _GUTTER_L - 8) * (t / duration_ms)

    def yp(v: float) -> float:
        return _PLOT_H - v * y_scale

    parts = [
        f'<svg width="{w}" height="{h}" role="img" '
        f'aria-label="{escape(title)}">'
    ]
    for frac in (0.0, 0.5, 1.0):
        v = peak * frac
        y = yp(v)
        cls = "axis" if frac == 0.0 else "grid"
        parts.append(
            f'<line x1="{_GUTTER_L}" y1="{y:.2f}" x2="{w - 8}" '
            f'y2="{y:.2f}" class="{cls}"/>'
            f'<text x="{_GUTTER_L - 6}" y="{y + 4:.2f}" '
            f'text-anchor="end">{_fmt(round(v, 3))}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        t = duration_ms * frac
        parts.append(
            f'<text x="{xp(t):.2f}" y="{_PLOT_H + 16}" '
            f'text-anchor="middle">{_fmt(round(t, 1))} ms</text>'
        )
    for alert in alerts:
        t = float(alert["time_ms"])  # type: ignore[arg-type]
        if not 0.0 <= t <= duration_ms:
            continue
        kind = str(alert["kind"])
        parts.append(
            f'<line x1="{xp(t):.2f}" y1="{top}" x2="{xp(t):.2f}" '
            f'y2="{_PLOT_H}" class="alert a-{escape(kind)}">'
            f"<title>{escape(kind)} @ {_fmt(t)} ms: "
            f'{escape(str(alert.get("message", "")))}</title></line>'
        )
    for name in sorted(series):
        points = series[name]
        if not points:
            continue
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{xp(t):.2f} {yp(v):.2f}"
            for i, (t, v) in enumerate(points)
        )
        parts.append(
            f'<path d="{path}" class="line t-{slots.get(name, 0)}">'
            f"<title>{escape(name)}</title></path>"
        )
    parts.append("</svg>")
    return f"<h2>{escape(title)} <small>({escape(unit)})</small></h2>" + "".join(
        parts
    )


def _series_points(
    doc_series: Mapping[str, Mapping[str, object]],
    path: str,
    value_of,
) -> List[Tuple[float, float]]:
    """(window midpoint, value) points of one exported series."""
    data = doc_series.get(path)
    if not data:
        return []
    window = float(data["window"])  # type: ignore[arg-type]
    cells = data["cells"]
    assert isinstance(cells, dict)
    points = []
    for key in sorted(cells, key=int):
        value = value_of(data, cells[key])
        points.append(((int(key) + 0.5) * window, float(value)))
    return points


# -- page assembly ------------------------------------------------------------


def _tiles(entries: Sequence[Tuple[str, str]]) -> str:
    tiles = "".join(
        f'<div class="tile"><div class="label">{escape(label)}</div>'
        f'<div class="value">{escape(value)}</div></div>'
        for label, value in entries
    )
    return f'<div class="tiles">{tiles}</div>'


def _render_serving(doc: Mapping[str, object]) -> List[str]:
    meta = doc["meta"]
    serving = doc["serving"]
    doc_series = doc.get("series", {})
    alerts = doc.get("alerts", [])
    assert isinstance(meta, dict) and isinstance(serving, dict)
    assert isinstance(doc_series, dict) and isinstance(alerts, list)
    tenants = serving["tenants"]
    assert isinstance(tenants, dict)
    duration_ms = float(meta["duration_ms"])
    totals = serving["totals"]
    assert isinstance(totals, dict)
    slots = _tenant_slots(list(tenants))
    names = sorted(tenants)

    out: List[str] = []
    out.append(
        "<h1>MAICC serving run report</h1>"
        f'<p class="meta">scenario <b>{escape(str(meta["scenario"]))}</b> · '
        f'policy <b>{escape(str(meta["policy"]))}</b> · '
        f'discipline {escape(str(meta["discipline"]))} · '
        f"{_fmt(duration_ms)} ms · "
        f'window {_fmt(float(meta["window_ms"]))} ms</p>'
    )
    out.append(
        _tiles(
            [
                ("completed", _fmt(totals["completed"])),
                ("shed", _fmt(totals["shed"])),
                ("deadline misses", _fmt(totals["deadline_misses"])),
                ("worst p99 ms", _fmt(round(float(totals["worst_p99_ms"]), 3))),
                ("utilization", _fmt(round(float(serving["utilization"]), 3))),
                ("alerts", _fmt(len(alerts))),
            ]
        )
    )

    # Latency attribution: stacked bar per tenant, grouped by category.
    bar_rows: List[Tuple[str, List[Tuple[str, float]]]] = []
    attr_rows: List[List[object]] = []
    seen_categories: List[str] = []
    for name in names:
        attribution = tenants[name]["attribution"]
        phases: Mapping[str, float] = attribution["phases"]
        categories: Mapping[str, str] = attribution["categories"]
        by_category: Dict[str, float] = {}
        for phase, value in phases.items():
            by_category.setdefault(categories[phase], 0.0)
            by_category[categories[phase]] += float(value)
        segments = [
            (c, by_category[c]) for c in PHASE_CATEGORIES if c in by_category
        ]
        for c, _ in segments:
            if c not in seen_categories:
                seen_categories.append(c)
        bar_rows.append((name, segments))
        total = sum(v for _, v in segments)
        attr_rows.append(
            [name]
            + [_fmt(round(by_category.get(c, 0.0), 4)) for c in PHASE_CATEGORIES]
            + [_fmt(round(total, 4))]
        )
    out.append(
        '<div class="card"><h2>Where the time went (per tenant, ms)</h2>'
        + _stacked_bar_svg(bar_rows)
        + _legend(
            [
                (_category_class(c), c)
                for c in PHASE_CATEGORIES
                if c in seen_categories
            ]
        )
        + _table(["tenant", *PHASE_CATEGORIES, "total"], attr_rows)
        + "</div>"
    )

    # Time-series panels from the registry's windowed series.
    tenant_legend = _legend([(f"tf-{slots[n]}", n) for n in names])
    panels: List[Tuple[str, str, Dict[str, List[Tuple[float, float]]]]] = []
    throughput = {
        n: _series_points(
            doc_series,
            f"serving/tenant/{n}/throughput",
            lambda data, cell: 1000.0
            * float(cell["count"])
            / float(data["window"]),
        )
        for n in names
    }
    panels.append(("Throughput", "requests/s", throughput))
    p99 = {
        n: _series_points(
            doc_series,
            f"serving/tenant/{n}/latency_windowed",
            lambda data, cell: bucket_percentile(
                data["bounds"] or [],
                cell.get("bucket_counts") or [],
                int(cell["count"]),
                cell["min"],
                cell["max"],
                99.0,
            ),
        )
        for n in names
    }
    panels.append(("p99 latency per window", "ms", p99))
    depth = {
        n: _series_points(
            doc_series,
            f"serving/tenant/{n}/queue_depth",
            lambda data, cell: float(cell["last"] or 0.0),
        )
        for n in names
    }
    panels.append(("Queue depth (last sample)", "requests", depth))
    shed = {
        n: _series_points(
            doc_series,
            f"serving/tenant/{n}/shed_windowed",
            lambda data, cell: float(cell["count"]),
        )
        for n in names
    }
    if any(shed.values()):
        panels.append(("Shed requests per window", "requests", shed))
    servers = serving.get("servers", {})
    assert isinstance(servers, dict)
    utilization = {
        s: _series_points(
            doc_series,
            f"serving/server/{s}/busy",
            lambda data, cell: float(cell["busy"]) / float(data["window"]),
        )
        for s in sorted(set(servers.values()))
    }
    util_slots = _tenant_slots(list(utilization))
    for title, unit, data in panels:
        out.append(
            '<div class="card">'
            + _line_panel(title, unit, duration_ms, data, slots, alerts)
            + tenant_legend
            + "</div>"
        )
    if any(utilization.values()):
        out.append(
            '<div class="card">'
            + _line_panel(
                "Server utilization", "busy fraction", duration_ms,
                utilization, util_slots, alerts,
            )
            + _legend([(f"tf-{util_slots[s]}", s) for s in sorted(utilization)])
            + "</div>"
        )

    # Alerts: icon + label so state is never color-alone.
    if alerts:
        rows = [
            [
                _fmt(round(float(a["time_ms"]), 3)),
                f'{ALERT_ICONS.get(str(a["kind"]), "•")} {a["kind"]}',
                "all tenants" if a["tenant"] == CLUSTER else a["tenant"],
                _fmt(round(float(a["value"]), 3)),
                _fmt(float(a["threshold"])),
                str(a.get("message", "")),
            ]
            for a in alerts
        ]
        out.append(
            '<div class="card"><h2>SLO alerts</h2>'
            + _table(
                ["time ms", "kind", "tenant", "value", "threshold", "detail"],
                rows,
            )
            + "</div>"
        )

    # Per-tenant SLO table (the WCAG-clean twin of every chart above).
    slo_rows = []
    for name in names:
        t = tenants[name]
        latency = t["latency_ms"]
        slo_rows.append(
            [
                name,
                t["arrivals"],
                t["completed"],
                t["shed"],
                _fmt(round(float(latency["p50"]), 4)),
                _fmt(round(float(latency["p95"]), 4)),
                _fmt(round(float(latency["p99"]), 4)),
                _fmt(round(100.0 * float(t["deadline_miss_rate"]), 2)),
                _fmt(round(float(t["goodput_rps"]), 1)),
            ]
        )
    out.append(
        '<div class="card"><h2>Per-tenant SLO</h2>'
        + _table(
            [
                "tenant", "arrivals", "completed", "shed", "p50 ms",
                "p95 ms", "p99 ms", "miss %", "goodput/s",
            ],
            slo_rows,
        )
        + "</div>"
    )
    return out


def _absolute_stacked_bars(
    rows: Sequence[Tuple[str, List[Tuple[str, float]]]],
    slots: Mapping[str, int],
    unit: str,
) -> str:
    """Horizontal stacked bars on one shared absolute scale.

    Unlike :func:`_stacked_bar_svg` (per-row normalization, composition
    view), every row here is scaled against the global peak, so bar
    lengths compare across rows — the right view for per-chip load.
    """
    bar_h, row_h, label_w = 18, 30, 110
    width = 640
    height = row_h * len(rows) + 4
    peak = max(
        (sum(v for _, v in segments) for _, segments in rows), default=0.0
    )
    peak = peak if peak > 0 else 1.0
    span = width - label_w - 8
    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="per-chip load stacked bars">'
    ]
    for r, (label, segments) in enumerate(rows):
        y = 4 + r * row_h
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
            f'text-anchor="end">{escape(label)}</text>'
        )
        x = float(label_w)
        for series, value in segments:
            if value <= 0:
                continue
            w = span * (value / (peak * 1.05))
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
                f'height="{bar_h}" rx="2" class="tf-{slots.get(series, 0)}">'
                f"<title>{escape(label)} · {escape(series)}: "
                f"{_fmt(value)} {escape(unit)}</title></rect>"
            )
            x += w
    parts.append("</svg>")
    return "".join(parts)


def _render_fleet(doc: Mapping[str, object]) -> List[str]:
    meta = doc["meta"]
    fleet = doc["fleet"]
    assert isinstance(meta, dict) and isinstance(fleet, dict)
    models = fleet["models"]
    per_chip = fleet["per_chip"]
    totals = fleet["totals"]
    utilization = fleet["utilization"]
    events = fleet["events"]
    router = fleet["router"]
    assert isinstance(models, dict) and isinstance(per_chip, dict)
    assert isinstance(totals, dict) and isinstance(utilization, dict)
    assert isinstance(events, dict) and isinstance(router, dict)
    names = sorted(models)
    slots = _tenant_slots(names)
    model_legend = _legend([(f"tf-{slots[n]}", n) for n in names])
    recoveries = events["recoveries"]
    scale_events = events["scale"]
    assert isinstance(recoveries, list) and isinstance(scale_events, list)

    out: List[str] = []
    out.append(
        "<h1>MAICC fleet run report</h1>"
        f'<p class="meta">scenario <b>{escape(str(meta["scenario"]))}</b> · '
        f'balancer <b>{escape(str(meta["balancer"]))}</b> · '
        f'{_fmt(meta["chips"])} chips · '
        f'{_fmt(float(meta["duration_ms"]))} ms · '
        f'seed {_fmt(meta["seed"])}</p>'
    )
    fleet_latency = totals["latency_ms"]
    assert isinstance(fleet_latency, dict)
    out.append(
        _tiles(
            [
                ("generated", _fmt(totals["generated"])),
                ("completed", _fmt(totals["completed"])),
                ("shed", _fmt(totals["shed"])),
                ("failed", _fmt(totals["failed"])),
                ("router shed", _fmt(totals["router_shed"])),
                ("fleet p99 ms",
                 _fmt(round(float(fleet_latency["p99"]), 3))),
                ("worst-model p99 ms",
                 _fmt(round(float(totals["worst_model_p99_ms"]), 3))),
                ("mean utilization",
                 _fmt(round(float(totals["mean_utilization"]), 3))),
                ("conserved", _fmt(bool(totals["conserved"]))),
            ]
        )
    )

    # Per-model fleet rollup (latency merged across replicas).
    model_rows = []
    for name in names:
        m = models[name]
        latency = m["latency_ms"]
        model_rows.append(
            [
                name,
                m["generated"],
                m["completed"],
                m["shed"],
                m["failed"],
                m["router_shed"],
                _fmt(round(float(latency["p50"]), 4)),
                _fmt(round(float(latency["p95"]), 4)),
                _fmt(round(float(latency["p99"]), 4)),
                m["replicas_final"],
                _fmt(bool(m["conserved"])),
            ]
        )
    out.append(
        '<div class="card"><h2>Per-model fleet SLO</h2>'
        + _table(
            [
                "model", "generated", "completed", "shed", "failed",
                "router shed", "p50 ms", "p95 ms", "p99 ms", "replicas",
                "conserved",
            ],
            model_rows,
        )
        + "</div>"
    )

    # Per-chip panels: routed load by model (absolute scale), then the
    # per-chip accounting table — the WCAG-clean twin of the bars.
    routed = router["routed"]
    assert isinstance(routed, dict)
    chips = sorted(per_chip, key=int)
    bar_rows: List[Tuple[str, List[Tuple[str, float]]]] = []
    chip_rows: List[List[object]] = []
    for chip in chips:
        result = per_chip[chip]
        segments: List[Tuple[str, float]] = []
        arrivals = completed = shed = failed = 0
        hosted: List[str] = []
        if isinstance(result, dict):
            tenants = result["tenants"]
            assert isinstance(tenants, dict)
            for tenant in sorted(tenants):
                row = tenants[tenant]
                segments.append((tenant, float(row["arrivals"])))
                arrivals += int(row["arrivals"])
                completed += int(row["completed"])
                shed += int(row["shed"])
                failed += int(row.get("failed", 0))
                hosted.append(tenant)
        bar_rows.append((f"chip {chip}", segments))
        chip_rows.append(
            [
                chip,
                _fmt(round(float(utilization.get(chip, 0.0)), 3)),
                arrivals,
                completed,
                shed,
                failed,
                routed.get(chip, 0),
                " ".join(hosted) or "—",
            ]
        )
    out.append(
        '<div class="card"><h2>Per-chip load (arrivals by model)</h2>'
        + _absolute_stacked_bars(bar_rows, slots, "requests")
        + model_legend
        + _table(
            [
                "chip", "utilization", "arrivals", "completed", "shed",
                "failed", "routed", "models",
            ],
            chip_rows,
        )
        + "</div>"
    )

    # Control-plane events: crash recoveries and autoscale decisions.
    if recoveries:
        rows = [
            [
                _fmt(round(float(e["time_ms"]), 3)),
                e["model"],
                e["from_chip"],
                e["to_chip"],
                _fmt(round(float(e["ready_ms"]), 3)),
            ]
            for e in recoveries
        ]
        out.append(
            '<div class="card"><h2>Crash recoveries</h2>'
            + _table(
                ["time ms", "model", "from chip", "to chip", "ready ms"],
                rows,
            )
            + "</div>"
        )
    if scale_events:
        rows = [
            [
                _fmt(round(float(e["time_ms"]), 3)),
                e["model"],
                e["direction"],
                e["chip"],
                e["replicas"],
                _fmt(round(float(e["utilization"]), 3)),
                _fmt(bool(e["burn_alert"])),
            ]
            for e in scale_events
        ]
        out.append(
            '<div class="card"><h2>Autoscale events</h2>'
            + _table(
                [
                    "time ms", "model", "direction", "chip", "replicas",
                    "window util", "burn alert",
                ],
                rows,
            )
            + "</div>"
        )
    return out


def _render_xcheck(doc: Mapping[str, object]) -> List[str]:
    workloads = doc["workloads"]
    assert isinstance(workloads, dict)
    out: List[str] = [
        "<h1>MAICC cross-tier report</h1>",
        '<p class="meta">one mapped plan, every simulation tier; phase '
        "attribution via the same decomposition the serving stack "
        "bills.</p>",
    ]
    for name in sorted(workloads):
        workload = workloads[name]
        xcheck = workload["xcheck"]
        tiers = workload["tiers"]
        assert isinstance(xcheck, dict) and isinstance(tiers, dict)
        check_rows = [
            [
                c["backend"],
                _fmt(round(float(c["total_cycles"]), 1)),
                _fmt(round(float(c["latency_ms"]), 6)),
                _fmt(round(float(c["ratio"]), 4)),
                f'[{_fmt(c["envelope"][0])}, {_fmt(c["envelope"][1])}]',
                _fmt(bool(c["ok"])),
            ]
            for c in xcheck["checks"]
        ]
        bar_rows: List[Tuple[str, List[Tuple[str, float]]]] = []
        seen: List[str] = []
        phase_rows: List[List[object]] = []
        for backend in sorted(tiers):
            tier = tiers[backend]
            by_category: Dict[str, float] = {}
            for phase, value in tier["phases"].items():
                category = tier["categories"][phase]
                by_category.setdefault(category, 0.0)
                by_category[category] += float(value)
            segments = [
                (c, by_category[c])
                for c in PHASE_CATEGORIES
                if c in by_category and by_category[c] > 0
            ]
            for c, _ in segments:
                if c not in seen:
                    seen.append(c)
            bar_rows.append((backend, segments))
            phase_rows.append(
                [backend]
                + [
                    _fmt(round(by_category.get(c, 0.0), 1))
                    for c in PHASE_CATEGORIES
                ]
            )
        out.append(
            f'<div class="card"><h2>{escape(name)}</h2>'
            + _table(
                ["backend", "cycles", "latency ms", "ratio", "envelope", "ok"],
                check_rows,
            )
            + "<h2>Cycle attribution by tier</h2>"
            + _stacked_bar_svg(bar_rows)
            + _legend([(_category_class(c), c) for c in seen])
            + _table(["backend", *PHASE_CATEGORIES], phase_rows)
            + "</div>"
        )
    return out


#: Hardware blocks the DSE panels stack (union of the energy and area
#: splits); sorted order fixes each block's palette slot.
DSE_BLOCKS = ("cmem", "core", "dram", "llc", "local_mem", "noc")

#: Neutral mark for dominated design points (works on both surfaces —
#: identity comes from the table twin, never from color).
_DOT_FILL = "#898781"


def _pareto_scatter(
    group: str,
    points: Sequence[Mapping[str, object]],
    frontier_ids: Sequence[str],
) -> str:
    """Latency-energy scatter of one (network, backend) group.

    Dominated points are small neutral dots; the Pareto frontier is a
    2px staircase with 4px markers.  Native tooltips carry the point
    ids; the exact values live in the table twin below the chart.
    """
    w, h = _PLOT_W, 220
    top, right = 8, 8
    xs = [float(p["latency_ms"]) for p in points]  # type: ignore[arg-type]
    ys = [float(p["energy_total_j"]) for p in points]  # type: ignore[arg-type]
    peak_x = max(xs, default=0.0) or 1.0
    peak_y = max(ys, default=0.0) or 1.0

    def xp(v: float) -> float:
        return _GUTTER_L + (w - _GUTTER_L - right) * (v / (peak_x * 1.05))

    def yp(v: float) -> float:
        return top + (h - top - _GUTTER_B) * (1.0 - v / (peak_y * 1.05))

    parts = [
        f'<svg width="{w}" height="{h}" role="img" '
        f'aria-label="Pareto frontier {escape(group)}">'
    ]
    for frac in (0.0, 0.5, 1.0):
        y = yp(peak_y * frac)
        cls = "axis" if frac == 0.0 else "grid"
        parts.append(
            f'<line x1="{_GUTTER_L}" y1="{y:.2f}" x2="{w - right}" '
            f'y2="{y:.2f}" class="{cls}"/>'
            f'<text x="{_GUTTER_L - 6}" y="{y + 4:.2f}" '
            f'text-anchor="end">{_fmt(round(peak_y * frac, 6))}</text>'
        )
        x = xp(peak_x * frac)
        parts.append(
            f'<text x="{x:.2f}" y="{h - _GUTTER_B + 16}" '
            f'text-anchor="middle">{_fmt(round(peak_x * frac, 3))} ms</text>'
        )
    by_id = {str(p["point_id"]): p for p in points}
    frontier = [by_id[pid] for pid in frontier_ids if pid in by_id]
    dominated = [p for p in points if str(p["point_id"]) not in set(frontier_ids)]
    for p in dominated:
        parts.append(
            f'<circle cx="{xp(float(p["latency_ms"])):.2f}" '  # type: ignore[arg-type]
            f'cy="{yp(float(p["energy_total_j"])):.2f}" r="3" '  # type: ignore[arg-type]
            f'fill="{_DOT_FILL}" fill-opacity="0.55">'
            f'<title>{escape(str(p["point_id"]))}</title></circle>'
        )
    if frontier:
        path = " ".join(
            f"{'M' if i == 0 else 'L'}"
            f'{xp(float(p["latency_ms"])):.2f} '  # type: ignore[arg-type]
            f'{yp(float(p["energy_total_j"])):.2f}'  # type: ignore[arg-type]
            for i, p in enumerate(frontier)
        )
        parts.append(f'<path d="{path}" class="line t-0"/>')
    for p in frontier:
        parts.append(
            f'<circle cx="{xp(float(p["latency_ms"])):.2f}" '  # type: ignore[arg-type]
            f'cy="{yp(float(p["energy_total_j"])):.2f}" r="4" '  # type: ignore[arg-type]
            f'class="tf-0"><title>{escape(str(p["point_id"]))}: '
            f'{_fmt(round(float(p["latency_ms"]), 4))} ms, '  # type: ignore[arg-type]
            f'{_fmt(float(p["energy_total_j"]))} J</title></circle>'  # type: ignore[arg-type]
        )
    parts.append("</svg>")
    return "".join(parts)


def _render_dse(doc: Mapping[str, object]) -> List[str]:
    meta = doc["meta"]
    dse = doc["dse"]
    assert isinstance(meta, dict) and isinstance(dse, dict)
    counts = dse["counts"]
    points = dse["points"]
    pareto = dse["pareto"]
    tables = dse["tables"]
    baselines = dse["baselines"]
    assert isinstance(counts, dict) and isinstance(points, list)
    assert isinstance(pareto, dict) and isinstance(tables, dict)
    assert isinstance(baselines, dict)
    slots = _tenant_slots(DSE_BLOCKS)

    out: List[str] = []
    out.append(
        "<h1>MAICC design-space exploration report</h1>"
        f'<p class="meta">sweep <b>{escape(str(meta["sweep"]))}</b> · '
        f'{_fmt(meta["points"])} design points · '
        f"frontier objectives: latency vs total energy "
        f"(per network / backend)</p>"
    )
    out.append(
        _tiles(
            [
                ("points", _fmt(len(points))),
                ("ok", _fmt(counts.get("ok", 0))),
                ("infeasible", _fmt(counts.get("infeasible", 0))),
                ("rejected", _fmt(counts.get("rejected", 0))),
                ("error", _fmt(counts.get("error", 0))),
                ("frontier", _fmt(sum(len(m) for m in pareto.values()))),  # type: ignore[arg-type]
            ]
        )
    )

    # One Pareto card per (network, backend) group, with a table twin.
    ok_points = [p for p in points if p.get("status") == "ok"]
    for group in sorted(pareto):
        frontier_ids = pareto[group]
        assert isinstance(frontier_ids, list)
        network, backend = str(group).split("/", 1)
        members = [
            p for p in ok_points
            if p["axes"]["network"] == network
            and p["axes"]["backend"] == backend
        ]
        if not members:
            continue
        frontier_rows = []
        by_id = {str(p["point_id"]): p for p in members}
        for pid in frontier_ids:
            p = by_id.get(str(pid))
            if p is None:
                continue
            frontier_rows.append(
                [
                    p["point_id"],
                    _fmt(round(float(p["latency_ms"]), 4)),  # type: ignore[arg-type]
                    _fmt(float(p["energy_total_j"])),  # type: ignore[arg-type]
                    _fmt(round(float(p["area_total_mm2"]), 3)),  # type: ignore[arg-type]
                    _fmt(round(float(p["average_power_w"]), 3)),  # type: ignore[arg-type]
                    _fmt(round(float(p["gops_per_watt"]), 2)),  # type: ignore[arg-type]
                ]
            )
        out.append(
            f'<div class="card"><h2>Pareto frontier — {escape(str(group))} '
            f"<small>({len(frontier_ids)} of {len(members)} points)</small>"
            "</h2>"
            + _pareto_scatter(str(group), members, [str(i) for i in frontier_ids])
            + _table(
                [
                    "point", "latency ms", "energy J", "area mm²",
                    "power W", "GOPS/W",
                ],
                frontier_rows,
            )
            + "</div>"
        )

    # Energy composition of the frontier points (absolute scale).
    frontier_all: List[str] = []
    for group in sorted(pareto):
        for pid in pareto[group]:  # type: ignore[union-attr]
            if pid not in frontier_all:
                frontier_all.append(str(pid))
    energy_rows_svg: List[Tuple[str, List[Tuple[str, float]]]] = []
    energy_rows_tab: List[List[object]] = []
    by_id_all = {str(p["point_id"]): p for p in ok_points}
    for pid in frontier_all:
        p = by_id_all.get(pid)
        if p is None:
            continue
        energy = p["energy_j"]
        assert isinstance(energy, dict)
        segments = [
            (block, float(energy[block]))
            for block in sorted(energy)
            if float(energy[block]) > 0
        ]
        energy_rows_svg.append((pid, segments))
        energy_rows_tab.append(
            [pid]
            + [_fmt(float(energy.get(b, 0.0))) for b in sorted(energy)]
            + [_fmt(float(p["energy_total_j"]))]  # type: ignore[arg-type]
        )
    if energy_rows_svg:
        blocks = sorted({b for _, segs in energy_rows_svg for b, _ in segs})
        out.append(
            '<div class="card"><h2>Energy by block (frontier points, J)</h2>'
            + _absolute_stacked_bars(energy_rows_svg, slots, "J")
            + _legend([(f"tf-{slots[b]}", b) for b in blocks])
            + _table(["point", *blocks, "total"], energy_rows_tab)
            + "</div>"
        )

    # Area per distinct architecture (points sharing a chip share a row).
    area_table = tables["area"]
    assert isinstance(area_table, list)
    if area_table:
        area_rows_svg = []
        area_rows_tab = []
        area_blocks = [
            b for b in ("cmem", "core", "local_mem", "noc", "llc")
            if f"{b}_mm2" in area_table[0]
        ]
        for row in area_table:
            assert isinstance(row, dict)
            segments = [
                (b, float(row[f"{b}_mm2"]))
                for b in area_blocks
                if float(row[f"{b}_mm2"]) > 0
            ]
            area_rows_svg.append((str(row["arch"]), segments))
            area_rows_tab.append(
                [row["arch"], row["cores"]]
                + [_fmt(round(float(row[f"{b}_mm2"]), 4)) for b in area_blocks]
                + [
                    _fmt(round(float(row["total_mm2"]), 3)),
                    _fmt(round(float(row["total_mm2_vs_ref"]), 4)),
                ]
            )
        out.append(
            '<div class="card"><h2>Area by block (per architecture, mm²)'
            "</h2>"
            + _absolute_stacked_bars(area_rows_svg, slots, "mm²")
            + _legend([(f"tf-{slots[b]}", b) for b in area_blocks])
            + _table(
                ["arch", "cores", *area_blocks, "total", "vs paper 28 mm²"],
                area_rows_tab,
            )
            + "</div>"
        )

    # Baseline section: whole-network scalar / Neural Cache references.
    if baselines:
        base_rows = [
            [
                name,
                _fmt(float(b["scalar_cycles"])),
                _fmt(float(b["scalar_energy_j"])),
                _fmt(float(b["neural_cache_cycles"])),
                _fmt(float(b["neural_cache_energy_j"])),
                _fmt(float(b["total_macs"])),
            ]
            for name, b in sorted(baselines.items())
            if isinstance(b, dict)
        ]
        out.append(
            '<div class="card"><h2>Single-node baselines (whole network)'
            "</h2>"
            + _table(
                [
                    "network", "scalar cycles", "scalar J",
                    "neural cache cycles", "neural cache J", "MACs",
                ],
                base_rows,
            )
            + "</div>"
        )

    # Non-simulable points, so the artifact accounts for its coverage.
    bad = [p for p in points if p.get("status") != "ok"]
    if bad:
        cap = 25
        rows = [
            [
                p["point_id"],
                p["status"],
                " ".join(str(f) for f in p.get("findings", [])) or "—",
                str(p.get("detail", ""))[:120],
            ]
            for p in bad[:cap]
        ]
        more = (
            f"<p class='meta'>… and {len(bad) - cap} more.</p>"
            if len(bad) > cap else ""
        )
        out.append(
            '<div class="card"><h2>Non-simulable points</h2>'
            + _table(["point", "status", "rules", "detail"], rows)
            + more
            + "</div>"
        )
    return out


def render_html(doc: Mapping[str, object]) -> str:
    """Render a validated report document to one self-contained page."""
    kind = doc.get("kind")
    if kind == "serving":
        serving = doc["serving"]
        assert isinstance(serving, dict)
        tenants = list(serving["tenants"])  # type: ignore[arg-type]
        body = _render_serving(doc)
        title = "MAICC serving run report"
    elif kind == "fleet":
        fleet = doc["fleet"]
        assert isinstance(fleet, dict)
        tenants = list(fleet["models"])  # type: ignore[arg-type]
        body = _render_fleet(doc)
        title = "MAICC fleet run report"
    elif kind == "dse":
        tenants = list(DSE_BLOCKS)
        body = _render_dse(doc)
        title = "MAICC design-space exploration report"
    else:
        tenants = []
        body = _render_xcheck(doc)
        title = "MAICC cross-tier report"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>{_style(tenants)}</style>\n"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


__all__ = ["ALERT_COLORS", "CATEGORICAL", "render_html"]
