"""Span recorder, self-time arithmetic, wrapper install/restore, export."""

from __future__ import annotations

import types

import pytest

from bench import trace
from repro.telemetry import validate_chrome_trace


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_span_parents_follow_nesting():
    rec = trace.Recorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 9]))
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("b"):
                pass
        with rec.span("c"):
            pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["root"].parent is None
    assert by_name["a"].parent == by_name["root"].id
    assert by_name["b"].parent == by_name["a"].id
    assert by_name["c"].parent == by_name["root"].id
    assert [s.name for s in rec.spans] == ["b", "a", "c", "root"]


def test_self_time_subtracts_direct_children_only():
    S = trace.Span
    spans = [
        S(1, "root", None, 0.0, 10.0),
        S(2, "a", 1, 1.0, 5.0),
        S(3, "b", 2, 2.0, 3.5),
        S(4, "c", 1, 6.0, 9.0),
    ]
    t = trace.layer_totals(spans)
    assert t["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 4.0 - 3.0}
    assert t["a"] == {"calls": 1, "busy_s": 4.0, "self_s": 4.0 - 1.5}
    assert t["b"]["self_s"] == 1.5
    assert t["c"]["self_s"] == 3.0
    assert sum(v["self_s"] for v in t.values()) == pytest.approx(10.0)


def test_busy_time_counts_only_the_outermost_span_of_a_key():
    S = trace.Span
    spans = [
        S(1, "x", None, 0.0, 10.0),
        S(2, "y", 1, 1.0, 8.0),
        S(3, "x", 2, 2.0, 5.0),
    ]
    t = trace.layer_totals(spans)
    assert t["x"]["calls"] == 2
    assert t["x"]["busy_s"] == 10.0
    assert t["x"]["self_s"] == (10.0 - 7.0) + 3.0


class Target:
    def work(self):
        return 7


class Backend:
    def run(self):
        raise ValueError("boom")


def test_wrappers_are_restored_when_the_call_raises():
    module = types.SimpleNamespace(helper=lambda: 1)
    backend = Backend()
    original_method = vars(Target)["work"]
    original_helper = module.helper
    rec = trace.Recorder()
    targets = [
        ("k.method", Target, "work", None),
        ("k.instance", backend, "run", None),
        ("k.module", module, "helper", None),
    ]
    with pytest.raises(ValueError):
        with trace.installed(rec, targets):
            assert module.helper() == 1
            assert Target().work() == 7
            backend.run()
    assert vars(Target)["work"] is original_method
    assert "run" not in vars(backend)
    assert module.helper is original_helper
    assert [s.name for s in rec.spans] == ["k.module", "k.method", "k.instance"]


def test_every_boundary_resolves_and_is_restored():
    before = [(owner, attr, vars(owner).get(attr)) for _, owner, attr, _ in trace.boundaries()]
    with trace.installed(trace.Recorder()):
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original


def traced_rep(*point_ms):
    times = [0.0]
    for ms in point_ms:
        times += [times[-1], times[-1] + ms / 1e3]
    rec = trace.Recorder(clock=fake_clock(times + [times[-1] + 1.0]))
    with rec.span(trace.ROOT):
        for _ in point_ms:
            with rec.span("dse.point"):
                pass
    return rec


def test_run_metrics_take_medians_and_pool_design_points():
    reps = [(traced_rep(1.0, 2.0), {"points_ok": 1}), (traced_rep(3.0, 4.0), {"points_ok": 2})]
    metrics = trace.run_metrics(reps)
    assert metrics["dse.point.calls"] == 2
    assert metrics["dse.useful_frac"] == pytest.approx(0.75)
    assert metrics["dse.point.p50_ms"] == pytest.approx(2.0)
    assert metrics["dse.point.p95_ms"] == pytest.approx(4.0)
    assert metrics["fleet.chip.max_s"] == 0.0
    assert len(trace.resnet18_layer_ids()) == 20
    assert "core.functional.layer.20-linear.ms" in metrics


def test_percentile_is_nearest_rank():
    assert trace.percentile([], 50) == 0.0
    assert trace.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert trace.percentile(list(range(1, 101)), 95) == 95


def test_chrome_trace_is_valid_and_parent_first():
    rec = trace.Recorder(clock=fake_clock([0.0, 0.0, 1.0, 2.0]))
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    chrome = trace.chrome_trace(rec.spans)
    assert validate_chrome_trace(chrome) == 3
    spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["outer", "inner"]
    assert spans[1]["args"]["parent"] == spans[0]["args"]["id"]
