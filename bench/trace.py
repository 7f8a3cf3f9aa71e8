"""Host-time spans at the simulator's layer boundaries (the traced run).

:func:`installed` swaps timing wrappers in for public callables at the
attribute the call site looks them up on (a module-level ``from x import
f`` is patched in the importing module, a backend on its registered
instance) and restores the originals on exit, even when the run raises.
Each call becomes a :class:`Span` with a parent id; spans stay in memory
and are exported as one Chrome trace when the run ends.

Per boundary key the traced run reports ``<key>.calls``, ``<key>.busy_s``
(outermost spans of that key only, so nesting never double-counts) and
``<key>.self_s`` (each span's duration minus the time its direct children
cover).  ``bench.rep`` is the root span around one rep; its self time is
everything no boundary covers.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import repro.analysis.system as analysis_system
import repro.dse.engine as dse_engine
import repro.fleet.simulator as fleet_simulator
import repro.serving.policies as serving_policies
import repro.serving.service as serving_service
import repro.sim.backends as sim_backends
from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.functional import FunctionalNodeGroup
from repro.core.multi_dnn import MultiDNNScheduler
from repro.core.streaming import SegmentSimulator
from repro.dse import DSEResult, SweepSpec
from repro.fleet import ClusterRouter, FleetSimulator
from repro.nn.workloads import resnet18_spec
from repro.serving import ChipHandle, ElasticPolicy, ServiceModel, ServingSimulator

ROOT = "bench.rep"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans and counters of one traced rep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans.append(Span(sid, name, parent, start, end))


#: ``hook(recorder, call args, result, span)`` adds counts after a call.
Hook = Callable[[Recorder, tuple, object, Span], None]


def _count_events(recorder: Recorder, args: tuple, result: object, span: Span) -> None:
    recorder.counters["core.event.events"] += result.events_processed


def _count_functional(recorder: Recorder, args: tuple, result: object, span: Span) -> None:
    group = args[0]
    recorder.counters["core.functional.macs"] += group.stats.macs
    recorder.counters[f"core.functional.layer.{layer_id(group.spec)}.ms"] += span.seconds * 1e3


def layer_id(spec: object) -> str:
    return f"{spec.index:02d}-{spec.name}"


def boundaries() -> List[Tuple[str, object, str, Optional[Hook]]]:
    """``(key, owner, attribute, hook)`` for every wrapped callable."""
    return [
        ("dse.expand", SweepSpec, "expand", None),
        ("dse.point", dse_engine, "evaluate_point", None),
        ("dse.baselines", dse_engine, "network_baselines", None),
        ("dse.consolidate", DSEResult, "to_json", None),
        ("mapping.tile", dse_engine, "tile_network", None),
        ("mapping.tile", sim_backends, "tile_network", None),
        ("mapping.plan", dse_engine, "plan_network", None),
        ("mapping.plan", sim_backends, "plan_network", None),
        ("mapping.placement", serving_service, "zigzag_placement", None),
        ("analysis.preflight", dse_engine, "analyze_plan", None),
        ("analysis.preflight", analysis_system, "analyze_plan", None),
        ("analysis.preflight", serving_policies, "analyze_plan", None),
        *[
            (f"sim.{tier}", sim_backends.get_backend(tier), "run", None)
            for tier in ("analytic", "streaming", "event", "cycle")
        ],
        ("core.streaming", SegmentSimulator, "run", None),
        ("core.event", EventDrivenSegmentSimulator, "run", _count_events),
        ("core.functional", FunctionalNodeGroup, "run", _count_functional),
        ("core.partition", MultiDNNScheduler, "simulate_partition", None),
        ("serving.run", ServingSimulator, "run", None),
        ("serving.partition_run", ServiceModel, "partition_run", None),
        ("serving.control", ElasticPolicy, "on_interval", None),
        ("serving.finish", ChipHandle, "finish", None),
        ("fleet.run", FleetSimulator, "run", None),
        ("fleet.place", fleet_simulator, "place_replicas", None),
        ("fleet.arrivals", fleet_simulator, "generate_open_arrivals", None),
        ("fleet.route", ClusterRouter, "route_all", None),
        ("fleet.chip", fleet_simulator, "run_chip", None),
        ("fleet.merge", fleet_simulator, "merge_latency_histograms", None),
    ]


def _wrap(recorder: Recorder, key: str, fn: Callable, hook: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def timed(*args: object, **kwargs: object) -> object:
        with recorder.span(key):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(recorder, args, result, recorder.spans[-1])
        return result

    return timed


@contextmanager
def installed(
    recorder: Recorder,
    targets: Optional[Sequence[Tuple[str, object, str, Optional[Hook]]]] = None,
) -> Iterator[Recorder]:
    """Wrap every boundary for the duration of the block, then restore."""
    patched: List[Tuple[object, str, bool, object]] = []
    try:
        for key, owner, attr, hook in targets if targets is not None else boundaries():
            own = vars(owner)
            patched.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, _wrap(recorder, key, getattr(owner, attr), hook))
        yield recorder
    finally:
        for owner, attr, had_own, original in reversed(patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- per-layer metrics --------------------------------------------------------------


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{key: {"calls", "busy_s", "self_s"}}`` over one rep's spans."""
    by_id = {s.id: s for s in spans}
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds

    def nested_in_same_key(s: Span) -> bool:
        parent = s.parent
        while parent is not None:
            if by_id[parent].name == s.name:
                return True
            parent = by_id[parent].parent
        return False

    totals: Dict[str, Dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += s.seconds - covered[s.id]
        if not nested_in_same_key(s):
            t["busy_s"] += s.seconds
    return totals


def keys() -> List[str]:
    """Boundary keys in report order, the root first."""
    return [ROOT] + list(dict.fromkeys(key for key, *_ in boundaries()))


def resnet18_layer_ids() -> List[str]:
    return [layer_id(spec) for spec in resnet18_spec().layers]


def run_metrics(reps: Sequence[Tuple[Recorder, Mapping[str, float]]]) -> Dict[str, float]:
    """Every per-layer metric but ``bench.trace_overhead``, over traced reps.

    Each ``(recorder, stats)`` pair is one rep; ``stats`` are the
    model-side counts of :class:`bench.workloads.Outcome`.  Values are
    medians over reps, except the design-point percentiles, which pool
    every rep's points.  Layers the workload never reaches report zero.
    """
    per_rep = [rep_metrics(recorder, stats) for recorder, stats in reps]
    out = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
    points = [s.seconds * 1e3 for recorder, _ in reps for s in recorder.spans if s.name == "dse.point"]
    out["dse.point.p50_ms"] = percentile(points, 50)
    out["dse.point.p95_ms"] = percentile(points, 95)
    return out


def rep_metrics(recorder: Recorder, stats: Mapping[str, float]) -> Dict[str, float]:
    """The per-layer metrics one traced rep yields on its own."""
    totals = layer_totals(recorder.spans)
    out: Dict[str, float] = {}
    for key in keys():
        t = totals.get(key, {})
        for field in ("calls", "busy_s", "self_s"):
            out[f"{key}.{field}"] = t.get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["dse.useful_frac"] = ratio(stats.get("points_ok", 0), out["dse.point.calls"])
    partition_runs = out["serving.partition_run.calls"]
    out["serving.service_hit_frac"] = (
        1 - out["core.partition.calls"] / partition_runs if partition_runs else 0.0
    )
    out["serving.resizes"] = stats.get("resizes", 0)
    out["fleet.route.us_per_req"] = ratio(out["fleet.route.busy_s"] * 1e6, stats.get("routed", 0))
    out["fleet.chip.us_per_req"] = ratio(
        out["fleet.chip.busy_s"] * 1e6, stats.get("chip_requests", 0)
    )
    out["fleet.chip.max_s"] = max(
        (s.seconds for s in recorder.spans if s.name == "fleet.chip"), default=0.0
    )
    out["core.event.events"] = recorder.counters["core.event.events"]
    out["core.functional.macs"] = recorder.counters["core.functional.macs"]
    for layer in resnet18_layer_ids():
        name = f"core.functional.layer.{layer}.ms"
        out[name] = recorder.counters[name]
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


# -- export -------------------------------------------------------------------------


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """One host-time track; ``ts``/``dur`` in microseconds from the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, object]] = [
        {"ph": "M", "ts": 0, "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "simulator host time"}},
    ]
    for s in sorted(spans, key=lambda s: (s.start, s.id)):
        events.append({
            "ph": "X", "name": s.name, "pid": 1, "tid": 1,
            "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
            "args": {"id": s.id, "parent": s.parent},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"ts_unit": "host microseconds"},
    }
