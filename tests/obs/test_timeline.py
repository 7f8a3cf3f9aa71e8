"""The attribution invariant: phases sum bit-exactly to the total.

``fit_durations`` is the load-bearing primitive — every per-request
timeline and every per-tenant aggregate goes through it — so it gets the
property-test treatment on top of the unit cases, including the exact
input that made the pure-Newton fixup dither forever.
"""

import pytest

from repro.errors import ObservabilityError
from repro.nn.workloads import small_cnn_spec
from repro.obs.timeline import (
    PHASE_CATEGORIES,
    AttributionTable,
    Phase,
    PhaseSpec,
    RequestTimeline,
    fit_durations,
    fold_by_category,
    report_phases,
    scale_phases,
    timeline_from_report,
)
from repro.sim import simulate

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def left_sum(values):
    acc = 0.0
    for v in values:
        acc += v
    return acc


class TestFitDurations:
    def test_exact_input_is_untouched(self):
        assert fit_durations([1.0, 2.0, 3.0], 6.0) == [1.0, 2.0, 3.0]

    def test_tail_absorbs_the_residual(self):
        out = fit_durations([0.1, 0.2, 0.3], 0.7)
        assert left_sum(out) == 0.7
        assert out[0] == 0.1 and out[1] == 0.2

    def test_walks_left_when_tail_pins_at_zero(self):
        out = fit_durations([5.0, 1.0, 0.0], 3.0)
        assert left_sum(out) == 3.0
        assert all(d >= 0 for d in out)

    def test_empty_fits_zero_only(self):
        assert fit_durations([], 0.0) == []
        with pytest.raises(ObservabilityError):
            fit_durations([], 1.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ObservabilityError):
            fit_durations([1.0, -0.5], 1.0)
        with pytest.raises(ObservabilityError):
            fit_durations([1.0], -1.0)

    def test_newton_dither_regression(self):
        # This exact input made a pure Newton fixup oscillate between two
        # candidates whose sums bracket the target by one ulp each; the
        # binary-search fallback must land it.
        durations = [
            957.1380914829443, 0.0, 821.6066974363495, 1129.7934664843555,
        ]
        total = 2908.5382554036494
        out = fit_durations(durations, total)
        assert left_sum(out) == total

    def test_all_zero_durations_grow_the_tail(self):
        out = fit_durations([0.0, 0.0], 7.5)
        assert left_sum(out) == 7.5

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False),
    )
    def test_property_exact_sum(self, durations, jitter):
        # The billed total is always "the sum, give or take ulp noise" —
        # model that as the float sum nudged by a tiny relative jitter.
        total = left_sum(durations) * (1.0 + jitter)
        if total < 0:
            total = 0.0
        out = fit_durations(durations, total)
        assert left_sum(out) == total
        assert all(d >= 0 for d in out)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    def test_property_prefix_preserved_when_tail_absorbs(self, durations):
        total = left_sum(durations)
        out = fit_durations(durations, total)
        assert left_sum(out) == total
        # A total equal to the float sum never needs to touch the prefix.
        assert out[:-1] == [float(d) for d in durations[:-1]]


class TestPhaseSpec:
    def test_rejects_unknown_category(self):
        with pytest.raises(ObservabilityError):
            PhaseSpec("x", "warp-drive", 1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ObservabilityError):
            PhaseSpec("x", "compute", -1.0)


class TestRequestTimeline:
    def test_verify_passes_on_exact_sum(self):
        tl = RequestTimeline(
            tenant="a", index=0, arrival=0.0, end_to_end=3.0,
            phases=[Phase("queue", "queue", 1.0), Phase("c", "compute", 2.0)],
        )
        tl.verify()

    def test_verify_raises_on_drift(self):
        tl = RequestTimeline(
            tenant="a", index=0, arrival=0.0, end_to_end=3.0,
            phases=[Phase("c", "compute", 2.0)],
        )
        with pytest.raises(ObservabilityError):
            tl.verify()

    def test_by_category_folds_in_taxonomy_order(self):
        tl = RequestTimeline(
            tenant="a", index=0, arrival=0.0, end_to_end=6.0,
            phases=[
                Phase("s0/compute", "compute", 1.0),
                Phase("s0/dram", "dram", 2.0),
                Phase("s1/compute", "compute", 3.0),
            ],
        )
        folded = fold_by_category((p.category, p.duration) for p in tl.phases)
        assert folded == {"dram": 2.0, "compute": 4.0}
        assert list(folded) == ["dram", "compute"]


class TestScalePhases:
    def test_scales_proportionally(self):
        specs = [PhaseSpec("a", "dram", 1.0), PhaseSpec("b", "compute", 3.0)]
        out = scale_phases(specs, 8.0)
        assert out == [("a", "dram", 2.0), ("b", "compute", 6.0)]

    def test_all_zero_weights_stay_zero(self):
        specs = [PhaseSpec("a", "dram", 0.0), PhaseSpec("b", "compute", 0.0)]
        assert scale_phases(specs, 5.0) == [
            ("a", "dram", 0.0), ("b", "compute", 0.0),
        ]


class TestReportPhases:
    @pytest.fixture(scope="class")
    def report(self):
        return simulate(small_cnn_spec(), backend="streaming")

    def test_weights_cover_the_report(self, report):
        specs = report_phases(report)
        assert specs[-1].name == "drain"
        accounted = sum(s.weight for s in specs)
        assert accounted == pytest.approx(report.total_cycles, rel=1e-9)

    def test_every_segment_contributes_three_phases(self, report):
        specs = report_phases(report)
        assert len(specs) == 3 * len(report.runs) + 1
        categories = {s.category for s in specs}
        assert categories <= set(PHASE_CATEGORIES)

    def test_timeline_from_report_verifies(self, report):
        tl = timeline_from_report(report)
        assert tl.end_to_end == report.total_cycles
        tl.verify()


class TestAttributionTable:
    def specs(self):
        return [
            PhaseSpec("service/staging", "staging", 1.0),
            PhaseSpec("service/compute", "compute", 3.0),
        ]

    def test_lookup_caches_per_key(self):
        table = AttributionTable()
        calls = []

        def factory():
            calls.append(1)
            return self.specs()

        key1, t1 = table.lookup("a", 1, factory, 4.0)
        key2, t2 = table.lookup("a", 1, factory, 4.0)
        assert key1 == key2 and t1 is t2
        assert len(calls) == 1

    def test_invalidate_bumps_the_generation(self):
        table = AttributionTable()
        key1, _ = table.lookup("a", 1, self.specs, 4.0)
        table.invalidate("a")
        key2, _ = table.lookup("a", 1, self.specs, 8.0)
        assert key1 != key2
        assert key2[2] == key1[2] + 1

    def test_aggregate_weighs_templates_by_use_count(self):
        table = AttributionTable()
        key, _ = table.lookup("a", 1, self.specs, 4.0)
        for _ in range(3):
            table.record(key)
        names, categories, durations = table.aggregate("a", 6.0, 18.0)
        assert names[:2] == ["queue", "admission"]
        assert categories[:2] == ["queue", "admission"]
        total = 0.0
        for d in durations:
            total += d
        assert total == 18.0
        by_name = dict(zip(names, durations))
        assert by_name["queue"] == 6.0
        assert by_name["service/staging"] == pytest.approx(3.0)
        assert by_name["service/compute"] == pytest.approx(9.0)

    def test_aggregate_ignores_other_tenants(self):
        table = AttributionTable()
        key_a, _ = table.lookup("a", 1, self.specs, 4.0)
        key_b, _ = table.lookup("b", 1, self.specs, 40.0)
        table.record(key_a)
        table.record(key_b)
        names, _, durations = table.aggregate("a", 0.0, 4.0)
        assert dict(zip(names, durations))["service/compute"] < 4.0

    def test_timeline_verifies_and_orders_phases(self):
        table = AttributionTable()
        _, template = table.lookup("a", 1, self.specs, 4.0)
        tl = table.timeline("a", 7, arrival=10.0, start=12.0,
                            latency=6.0, template=template)
        assert [p.name for p in tl.phases] == [
            "queue", "admission", "service/staging", "service/compute",
        ]
        assert tl.phases[0].duration == 2.0
        tl.verify()
