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

Page structure: :data:`_KINDS` maps each report kind to its page title,
the keys that get palette slots, and a page function.  A page is a
header, stat tiles, and a list of :func:`_card` panels composed from
the drawers below (composition and magnitude bars, line panels, the
Pareto scatter, legends) and from record tables declared as
``(header, cell)`` column pairs (:func:`_records`).
"""

from __future__ import annotations

from html import escape
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple,
)

from repro.obs.monitor import CLUSTER
from repro.obs.timeline import PHASE_CATEGORIES, fold_by_category
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

#: A report document or one of its sections (``validate_report`` checks
#: the shape; the renderer only reads it).
Doc = Mapping[str, Any]
#: A table column: its header and the cell value of one record.
Column = Tuple[str, Callable[[Any], object]]
#: Bar-chart rows: (label, [(series, value), ...]).
BarRows = Sequence[Tuple[str, List[Tuple[str, float]]]]


def _fmt(value: object) -> str:
    """Stable human formatting for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _category_class(category: str) -> str:
    return f"c-{category}"


def _tenant_slots(tenants: Iterable[str]) -> Dict[str, int]:
    """Fixed slot per tenant (sorted order; capped at the palette)."""
    return {name: i % len(CATEGORICAL) for i, name in enumerate(sorted(tenants))}


def _style(tenants: Iterable[str]) -> str:
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


def _legend(entries: Iterable[Tuple[str, str]]) -> str:
    """A legend row of (css-fill-class, label) swatches."""
    keys = "".join(
        f'<span><svg width="10" height="10" class="keysvg">'
        f'<rect width="10" height="10" rx="2" class="{escape(cls)}"/></svg> '
        f"{escape(label)}</span>"
        for cls, label in entries
    )
    return f'<div class="legend">{keys}</div>'


def _slot_legend(slots: Mapping[str, int], keys: Iterable[str]) -> str:
    return _legend([(f"tf-{slots[k]}", k) for k in keys])


def _category_legend(categories: Iterable[str]) -> str:
    return _legend([(_category_class(c), c) for c in categories])


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(_fmt(v))}</td>" for v in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _records(columns: Sequence[Column], records: Iterable[Any]) -> str:
    """A table declared as (header, cell) column pairs, one row per record."""
    return _table(
        [header for header, _ in columns],
        [[cell(record) for _, cell in columns] for record in records],
    )


def _card(title: str, *parts: str) -> str:
    """One card: an ``<h2>`` (``title`` is markup, escaped by the caller)
    followed by its parts."""
    return f'<div class="card"><h2>{title}</h2>' + "".join(parts) + "</div>"


def _tiles(entries: Sequence[Tuple[str, object]]) -> str:
    tiles = "".join(
        f'<div class="tile"><div class="label">{escape(label)}</div>'
        f'<div class="value">{escape(_fmt(value))}</div></div>'
        for label, value in entries
    )
    return f'<div class="tiles">{tiles}</div>'


# -- attribution folds --------------------------------------------------------


def _fold(section: Doc) -> Dict[str, float]:
    """An attribution section's ``phases`` folded by their ``categories``."""
    categories = section["categories"]
    return fold_by_category(
        (categories[phase], value) for phase, value in section["phases"].items()
    )


def _category_columns(
    folds: Mapping[str, Mapping[str, float]], digits: int
) -> List[Column]:
    """One rounded column per taxonomy category of keyed folds."""
    return [
        (c, lambda key, c=c: round(folds[key].get(c, 0.0), digits))
        for c in PHASE_CATEGORIES
    ]


def _percentile_columns(latency: Callable[[Any], Doc]) -> List[Column]:
    return [
        (f"{q} ms", lambda record, q=q: round(float(latency(record)[q]), 4))
        for q in ("p50", "p95", "p99")
    ]


# -- stacked attribution bars -------------------------------------------------


def _stacked_bar_svg(rows: BarRows) -> str:
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


def _absolute_stacked_bars(
    rows: BarRows,
    slots: Mapping[str, int],
    unit: str,
    label: str,
) -> str:
    """Horizontal stacked bars on one shared absolute scale.

    Unlike :func:`_stacked_bar_svg` (per-row normalization, composition
    view), every row here is scaled against the global peak, so bar
    lengths compare across rows — the right view for per-chip load.
    ``label`` is the chart's accessible name.
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
        f'aria-label="{escape(label)}">'
    ]
    for r, (row_label, segments) in enumerate(rows):
        y = 4 + r * row_h
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
            f'text-anchor="end">{escape(row_label)}</text>'
        )
        x = float(label_w)
        for series, value in segments:
            if value <= 0:
                continue
            w = span * (value / (peak * 1.05))
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
                f'height="{bar_h}" rx="2" class="tf-{slots.get(series, 0)}">'
                f"<title>{escape(row_label)} · {escape(series)}: "
                f"{_fmt(value)} {escape(unit)}</title></rect>"
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
    alerts: Sequence[Doc],
    legend: str,
) -> str:
    """One small-multiples card: 2px lines per tenant over sim time,
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
        t = float(alert["time_ms"])
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
    return _card(
        f"{escape(title)} <small>({escape(unit)})</small>", *parts, legend
    )


def _series_points(
    doc_series: Doc, path: str, value_of: Callable[[Doc, Doc], float]
) -> List[Tuple[float, float]]:
    """(window midpoint, value) points of one exported series."""
    data = doc_series.get(path)
    if not data:
        return []
    window = float(data["window"])
    cells = data["cells"]
    return [
        ((int(key) + 0.5) * window, float(value_of(data, cells[key])))
        for key in sorted(cells, key=int)
    ]


#: The per-tenant serving panels: title, unit, series name under
#: ``serving/tenant/<tenant>/``, the plotted value of one window cell,
#: and whether the panel is drawn only when some tenant has a point.
_TENANT_PANELS: Tuple[Tuple[str, str, str, Callable[[Doc, Doc], float], bool], ...] = (
    ("Throughput", "requests/s", "throughput",
     lambda data, cell: 1000.0 * float(cell["count"]) / float(data["window"]), False),
    ("p99 latency per window", "ms", "latency_windowed",
     lambda data, cell: bucket_percentile(
         data["bounds"] or [], cell.get("bucket_counts") or [],
         int(cell["count"]), cell["min"], cell["max"], 99.0,
     ), False),
    ("Queue depth (last sample)", "requests", "queue_depth",
     lambda data, cell: float(cell["last"] or 0.0), False),
    ("Shed requests per window", "requests", "shed_windowed",
     lambda data, cell: float(cell["count"]), True),
)

_ALERT_COLUMNS: Tuple[Column, ...] = (
    ("time ms", lambda a: round(float(a["time_ms"]), 3)),
    ("kind", lambda a: f'{ALERT_ICONS.get(str(a["kind"]), "•")} {a["kind"]}'),
    ("tenant", lambda a: "all tenants" if a["tenant"] == CLUSTER else a["tenant"]),
    ("value", lambda a: round(float(a["value"]), 3)),
    ("threshold", lambda a: float(a["threshold"])),
    ("detail", lambda a: str(a.get("message", ""))),
)


def _serving_page(doc: Doc, h1: str) -> List[str]:
    meta, serving = doc["meta"], doc["serving"]
    doc_series = doc.get("series", {})
    alerts = doc.get("alerts", [])
    tenants, totals = serving["tenants"], serving["totals"]
    duration_ms = float(meta["duration_ms"])
    names = sorted(tenants)
    slots = _tenant_slots(names)
    out = [
        h1
        + f'<p class="meta">scenario <b>{escape(str(meta["scenario"]))}</b> · '
        f'policy <b>{escape(str(meta["policy"]))}</b> · '
        f'discipline {escape(str(meta["discipline"]))} · '
        f"{_fmt(duration_ms)} ms · "
        f'window {_fmt(float(meta["window_ms"]))} ms</p>',
        _tiles([
            ("completed", totals["completed"]),
            ("shed", totals["shed"]),
            ("deadline misses", totals["deadline_misses"]),
            ("worst p99 ms", round(float(totals["worst_p99_ms"]), 3)),
            ("utilization", round(float(serving["utilization"]), 3)),
            ("alerts", len(alerts)),
        ]),
    ]

    # Latency attribution: stacked bar per tenant, grouped by category;
    # the legend keeps every category a tenant carries, even at zero.
    folds = {n: _fold(tenants[n]["attribution"]) for n in names}
    attribution: List[Column] = [
        ("tenant", lambda n: n),
        *_category_columns(folds, 4),
        ("total", lambda n: round(sum(folds[n].values()), 4)),
    ]
    out.append(_card(
        "Where the time went (per tenant, ms)",
        _stacked_bar_svg([(n, list(folds[n].items())) for n in names]),
        _category_legend(
            c for c in PHASE_CATEGORIES if any(c in f for f in folds.values())
        ),
        _records(attribution, names),
    ))

    # Time-series panels from the registry's windowed series.
    legend = _slot_legend(slots, names)
    for title, unit, series, value_of, optional in _TENANT_PANELS:
        data = {
            n: _series_points(doc_series, f"serving/tenant/{n}/{series}", value_of)
            for n in names
        }
        if not optional or any(data.values()):
            out.append(
                _line_panel(title, unit, duration_ms, data, slots, alerts, legend)
            )
    servers = sorted(set(serving.get("servers", {}).values()))
    utilization = {
        s: _series_points(
            doc_series, f"serving/server/{s}/busy",
            lambda data, cell: float(cell["busy"]) / float(data["window"]),
        )
        for s in servers
    }
    if any(utilization.values()):
        util_slots = _tenant_slots(servers)
        out.append(_line_panel(
            "Server utilization", "busy fraction", duration_ms, utilization,
            util_slots, alerts, _slot_legend(util_slots, servers),
        ))

    # Alerts: icon + label so state is never color-alone.
    if alerts:
        out.append(_card("SLO alerts", _records(_ALERT_COLUMNS, alerts)))

    # Per-tenant SLO table (the WCAG-clean twin of every chart above).
    slo: List[Column] = [
        ("tenant", lambda n: n),
        ("arrivals", lambda n: tenants[n]["arrivals"]),
        ("completed", lambda n: tenants[n]["completed"]),
        ("shed", lambda n: tenants[n]["shed"]),
        *_percentile_columns(lambda n: tenants[n]["latency_ms"]),
        ("miss %", lambda n: round(100.0 * float(tenants[n]["deadline_miss_rate"]), 2)),
        ("goodput/s", lambda n: round(float(tenants[n]["goodput_rps"]), 1)),
    ]
    out.append(_card("Per-tenant SLO", _records(slo, names)))
    return out


_RECOVERY_COLUMNS: Tuple[Column, ...] = (
    ("time ms", lambda e: round(float(e["time_ms"]), 3)),
    ("model", lambda e: e["model"]),
    ("from chip", lambda e: e["from_chip"]),
    ("to chip", lambda e: e["to_chip"]),
    ("ready ms", lambda e: round(float(e["ready_ms"]), 3)),
)

_SCALE_COLUMNS: Tuple[Column, ...] = (
    ("time ms", lambda e: round(float(e["time_ms"]), 3)),
    ("model", lambda e: e["model"]),
    ("direction", lambda e: e["direction"]),
    ("chip", lambda e: e["chip"]),
    ("replicas", lambda e: e["replicas"]),
    ("window util", lambda e: round(float(e["utilization"]), 3)),
    ("burn alert", lambda e: bool(e["burn_alert"])),
)


def _fleet_page(doc: Doc, h1: str) -> List[str]:
    meta, fleet = doc["meta"], doc["fleet"]
    models, totals, events = fleet["models"], fleet["totals"], fleet["events"]
    names = sorted(models)
    slots = _tenant_slots(names)
    out = [
        h1
        + f'<p class="meta">scenario <b>{escape(str(meta["scenario"]))}</b> · '
        f'balancer <b>{escape(str(meta["balancer"]))}</b> · '
        f'{_fmt(meta["chips"])} chips · '
        f'{_fmt(float(meta["duration_ms"]))} ms · '
        f'seed {_fmt(meta["seed"])}</p>',
        _tiles([
            ("generated", totals["generated"]),
            ("completed", totals["completed"]),
            ("shed", totals["shed"]),
            ("failed", totals["failed"]),
            ("router shed", totals["router_shed"]),
            ("fleet p99 ms", round(float(totals["latency_ms"]["p99"]), 3)),
            ("worst-model p99 ms", round(float(totals["worst_model_p99_ms"]), 3)),
            ("mean utilization", round(float(totals["mean_utilization"]), 3)),
            ("conserved", bool(totals["conserved"])),
        ]),
    ]

    # Per-model fleet rollup (latency merged across replicas).
    per_model: List[Column] = [
        ("model", lambda n: n),
        ("generated", lambda n: models[n]["generated"]),
        ("completed", lambda n: models[n]["completed"]),
        ("shed", lambda n: models[n]["shed"]),
        ("failed", lambda n: models[n]["failed"]),
        ("router shed", lambda n: models[n]["router_shed"]),
        *_percentile_columns(lambda n: models[n]["latency_ms"]),
        ("replicas", lambda n: models[n]["replicas_final"]),
        ("conserved", lambda n: bool(models[n]["conserved"])),
    ]
    out.append(_card("Per-model fleet SLO", _records(per_model, names)))

    # Per-chip panels: routed load by model (absolute scale), then the
    # per-chip accounting table — the WCAG-clean twin of the bars.  A
    # crashed chip's result is null and hosts nothing.
    chips = sorted(fleet["per_chip"], key=int)
    hosted = {c: (fleet["per_chip"][c] or {}).get("tenants", {}) for c in chips}
    per_chip: List[Column] = [
        ("chip", lambda c: c),
        ("utilization", lambda c: round(float(fleet["utilization"].get(c, 0.0)), 3)),
        *[
            (key, lambda c, key=key: sum(int(t.get(key, 0)) for t in hosted[c].values()))
            for key in ("arrivals", "completed", "shed", "failed")
        ],
        ("routed", lambda c: fleet["router"]["routed"].get(c, 0)),
        ("models", lambda c: " ".join(sorted(hosted[c])) or "—"),
    ]
    load = [
        (f"chip {c}", [(t, float(hosted[c][t]["arrivals"])) for t in sorted(hosted[c])])
        for c in chips
    ]
    out.append(_card(
        "Per-chip load (arrivals by model)",
        _absolute_stacked_bars(load, slots, "requests", "per-chip load stacked bars"),
        _slot_legend(slots, names),
        _records(per_chip, chips),
    ))

    # Control-plane events: crash recoveries and autoscale decisions.
    if events["recoveries"]:
        out.append(_card(
            "Crash recoveries", _records(_RECOVERY_COLUMNS, events["recoveries"])
        ))
    if events["scale"]:
        out.append(_card(
            "Autoscale events", _records(_SCALE_COLUMNS, events["scale"])
        ))
    return out


_CHECK_COLUMNS: Tuple[Column, ...] = (
    ("backend", lambda c: c["backend"]),
    ("cycles", lambda c: round(float(c["total_cycles"]), 1)),
    ("latency ms", lambda c: round(float(c["latency_ms"]), 6)),
    ("ratio", lambda c: round(float(c["ratio"]), 4)),
    ("envelope", lambda c: f'[{_fmt(c["envelope"][0])}, {_fmt(c["envelope"][1])}]'),
    ("ok", lambda c: bool(c["ok"])),
)


def _xcheck_page(doc: Doc, h1: str) -> List[str]:
    out = [
        h1,
        '<p class="meta">one mapped plan, every simulation tier; phase '
        "attribution via the same decomposition the serving stack "
        "bills.</p>",
    ]
    workloads = doc["workloads"]
    for name in sorted(workloads):
        tiers = workloads[name]["tiers"]
        backends = sorted(tiers)
        folds = {b: _fold(tiers[b]) for b in backends}
        # Zero-valued categories get no segment; the legend lists the
        # drawn categories in first-seen order.
        bars = [(b, [(c, v) for c, v in folds[b].items() if v > 0]) for b in backends]
        phases: List[Column] = [("backend", lambda b: b), *_category_columns(folds, 1)]
        out.append(_card(
            escape(name),
            _records(_CHECK_COLUMNS, workloads[name]["xcheck"]["checks"]),
            "<h2>Cycle attribution by tier</h2>",
            _stacked_bar_svg(bars),
            _category_legend(dict.fromkeys(c for _, segs in bars for c, _ in segs)),
            _records(phases, backends),
        ))
    return out


#: Hardware blocks the DSE panels stack (union of the energy and area
#: splits); sorted order fixes each block's palette slot.
DSE_BLOCKS = ("cmem", "core", "dram", "llc", "local_mem", "noc")

#: Neutral mark for dominated design points (works on both surfaces —
#: identity comes from the table twin, never from color).
_DOT_FILL = "#898781"


def _pareto_scatter(
    group: str,
    points: Sequence[Doc],
    frontier_ids: Sequence[str],
) -> str:
    """Latency-energy scatter of one (network, backend) group.

    Dominated points are small neutral dots; the Pareto frontier is a
    2px staircase with 4px markers.  Native tooltips carry the point
    ids; the exact values live in the table twin below the chart.
    """
    w, h = _PLOT_W, 220
    top, right = 8, 8
    xs = [float(p["latency_ms"]) for p in points]
    ys = [float(p["energy_total_j"]) for p in points]
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
            f'<circle cx="{xp(float(p["latency_ms"])):.2f}" '
            f'cy="{yp(float(p["energy_total_j"])):.2f}" r="3" '
            f'fill="{_DOT_FILL}" fill-opacity="0.55">'
            f'<title>{escape(str(p["point_id"]))}</title></circle>'
        )
    if frontier:
        path = " ".join(
            f"{'M' if i == 0 else 'L'}"
            f'{xp(float(p["latency_ms"])):.2f} '
            f'{yp(float(p["energy_total_j"])):.2f}'
            for i, p in enumerate(frontier)
        )
        parts.append(f'<path d="{path}" class="line t-0"/>')
    for p in frontier:
        parts.append(
            f'<circle cx="{xp(float(p["latency_ms"])):.2f}" '
            f'cy="{yp(float(p["energy_total_j"])):.2f}" r="4" '
            f'class="tf-0"><title>{escape(str(p["point_id"]))}: '
            f'{_fmt(round(float(p["latency_ms"]), 4))} ms, '
            f'{_fmt(float(p["energy_total_j"]))} J</title></circle>'
        )
    parts.append("</svg>")
    return "".join(parts)


_FRONTIER_COLUMNS: Tuple[Column, ...] = (
    ("point", lambda p: p["point_id"]),
    ("latency ms", lambda p: round(float(p["latency_ms"]), 4)),
    ("energy J", lambda p: float(p["energy_total_j"])),
    ("area mm²", lambda p: round(float(p["area_total_mm2"]), 3)),
    ("power W", lambda p: round(float(p["average_power_w"]), 3)),
    ("GOPS/W", lambda p: round(float(p["gops_per_watt"]), 2)),
)

#: Over ``(network, baseline)`` pairs.
_BASELINE_COLUMNS: Tuple[Column, ...] = (
    ("network", lambda nb: nb[0]),
    ("scalar cycles", lambda nb: float(nb[1]["scalar_cycles"])),
    ("scalar J", lambda nb: float(nb[1]["scalar_energy_j"])),
    ("neural cache cycles", lambda nb: float(nb[1]["neural_cache_cycles"])),
    ("neural cache J", lambda nb: float(nb[1]["neural_cache_energy_j"])),
    ("MACs", lambda nb: float(nb[1]["total_macs"])),
)

_NON_SIMULABLE_COLUMNS: Tuple[Column, ...] = (
    ("point", lambda p: p["point_id"]),
    ("status", lambda p: p["status"]),
    ("rules", lambda p: " ".join(str(f) for f in p.get("findings", [])) or "—"),
    ("detail", lambda p: str(p.get("detail", ""))[:120]),
)

#: Rows of the non-simulable table before it summarizes the rest.
_NON_SIMULABLE_CAP = 25


def _dse_page(doc: Doc, h1: str) -> List[str]:
    meta, dse = doc["meta"], doc["dse"]
    counts, points, pareto = dse["counts"], dse["points"], dse["pareto"]
    slots = _tenant_slots(DSE_BLOCKS)
    out = [
        h1
        + f'<p class="meta">sweep <b>{escape(str(meta["sweep"]))}</b> · '
        f'{_fmt(meta["points"])} design points · '
        f"frontier objectives: latency vs total energy "
        f"(per network / backend)</p>",
        _tiles([
            ("points", len(points)),
            ("ok", counts.get("ok", 0)),
            ("infeasible", counts.get("infeasible", 0)),
            ("rejected", counts.get("rejected", 0)),
            ("error", counts.get("error", 0)),
            ("frontier", sum(len(m) for m in pareto.values())),
        ]),
    ]

    # One Pareto card per (network, backend) group, with a table twin.
    ok = {str(p["point_id"]): p for p in points if p.get("status") == "ok"}
    for group in sorted(pareto):
        frontier_ids = [str(pid) for pid in pareto[group]]
        network, backend = str(group).split("/", 1)
        members = {
            pid: p for pid, p in ok.items()
            if p["axes"]["network"] == network and p["axes"]["backend"] == backend
        }
        if not members:
            continue
        out.append(_card(
            f"Pareto frontier — {escape(str(group))} "
            f"<small>({len(frontier_ids)} of {len(members)} points)</small>",
            _pareto_scatter(str(group), list(members.values()), frontier_ids),
            _records(
                _FRONTIER_COLUMNS,
                [members[pid] for pid in frontier_ids if pid in members],
            ),
        ))

    # Energy composition of the frontier points (absolute scale).
    frontier = [
        ok[pid]
        for pid in dict.fromkeys(str(pid) for g in sorted(pareto) for pid in pareto[g])
        if pid in ok
    ]
    if frontier:
        energy = [
            (
                str(p["point_id"]),
                [(b, float(v)) for b, v in sorted(p["energy_j"].items()) if float(v) > 0],
            )
            for p in frontier
        ]
        blocks = sorted({b for _, segs in energy for b, _ in segs})
        columns: List[Column] = [
            ("point", lambda p: p["point_id"]),
            *[(b, lambda p, b=b: float(p["energy_j"].get(b, 0.0))) for b in blocks],
            ("total", lambda p: float(p["energy_total_j"])),
        ]
        out.append(_card(
            "Energy by block (frontier points, J)",
            _absolute_stacked_bars(energy, slots, "J", "energy by block stacked bars"),
            _slot_legend(slots, blocks),
            _records(columns, frontier),
        ))

    # Area per distinct architecture (points sharing a chip share a row).
    area = dse["tables"]["area"]
    if area:
        blocks = [
            b for b in ("cmem", "core", "local_mem", "noc", "llc")
            if f"{b}_mm2" in area[0]
        ]
        bars = [
            (
                str(row["arch"]),
                [(b, float(row[f"{b}_mm2"])) for b in blocks if float(row[f"{b}_mm2"]) > 0],
            )
            for row in area
        ]
        columns = [
            ("arch", lambda r: r["arch"]),
            ("cores", lambda r: r["cores"]),
            *[(b, lambda r, b=b: round(float(r[f"{b}_mm2"]), 4)) for b in blocks],
            ("total", lambda r: round(float(r["total_mm2"]), 3)),
            ("vs paper 28 mm²", lambda r: round(float(r["total_mm2_vs_ref"]), 4)),
        ]
        out.append(_card(
            "Area by block (per architecture, mm²)",
            _absolute_stacked_bars(bars, slots, "mm²", "area by block stacked bars"),
            _slot_legend(slots, blocks),
            _records(columns, area),
        ))

    # Baseline section: whole-network scalar / Neural Cache references.
    baselines = sorted(
        (name, b) for name, b in dse["baselines"].items() if isinstance(b, dict)
    )
    if dse["baselines"]:
        out.append(_card(
            "Single-node baselines (whole network)",
            _records(_BASELINE_COLUMNS, baselines),
        ))

    # Non-simulable points, so the artifact accounts for its coverage.
    bad = [p for p in points if p.get("status") != "ok"]
    if bad:
        more = len(bad) - _NON_SIMULABLE_CAP
        out.append(_card(
            "Non-simulable points",
            _records(_NON_SIMULABLE_COLUMNS, bad[:_NON_SIMULABLE_CAP]),
            f"<p class='meta'>… and {more} more.</p>" if more > 0 else "",
        ))
    return out


class _Kind(NamedTuple):
    """One report kind's page: its title, the keys that get palette slots
    (tenants, models or hardware blocks), and the body builder."""

    title: str
    palette_keys: Callable[[Doc], Iterable[str]]
    page: Callable[[Doc, str], List[str]]


_KINDS: Dict[str, _Kind] = {
    "serving": _Kind(
        "MAICC serving run report", lambda doc: doc["serving"]["tenants"], _serving_page
    ),
    "fleet": _Kind(
        "MAICC fleet run report", lambda doc: doc["fleet"]["models"], _fleet_page
    ),
    "xcheck": _Kind("MAICC cross-tier report", lambda doc: (), _xcheck_page),
    "dse": _Kind(
        "MAICC design-space exploration report", lambda doc: DSE_BLOCKS, _dse_page
    ),
}


def render_html(doc: Doc) -> str:
    """Render a validated report document to one self-contained page."""
    title, palette_keys, page = _KINDS[doc["kind"]]
    body = page(doc, f"<h1>{escape(title)}</h1>")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>{_style(palette_keys(doc))}</style>\n"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


__all__ = ["ALERT_COLORS", "CATEGORICAL", "render_html"]
