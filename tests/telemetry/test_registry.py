"""The hierarchical metrics registry: metric kinds, snapshot and merge."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import MetricsRegistry


class TestMetricKinds:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("core/0/pipeline/raw_stalls").add(3)
        reg.counter("core/0/pipeline/raw_stalls").add(2)
        assert reg.counters["core/0/pipeline/raw_stalls"].value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("x").add(-1)

    def test_gauge_set_and_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("noc/max_queue_depth")
        g.set(4)
        g.max(2)
        assert g.value == 4
        g.max(9)
        assert g.value == 9

    def test_histogram_buckets_and_moments(self):
        reg = MetricsRegistry()
        h = reg.histogram("dram/latency", bounds=[10, 100])
        for v in (5, 50, 500):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1]
        assert (h.count, h.total, h.min, h.max) == (3, 555.0, 5, 500)
        assert h.mean == 185.0

    def test_timer_records_durations(self):
        reg = MetricsRegistry()
        t = reg.timer("core/0/kernel")
        t.record(100)
        t.record(50)
        assert (t.count, t.total, t.min, t.max) == (2, 150.0, 50, 100)
        assert t.mean == 75.0

    def test_timer_rejects_negative_duration(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().timer("t").record(-1)

    def test_same_path_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a/b") is reg.counter("a/b")

    @pytest.mark.parametrize("bad", ["", "/lead", "trail/", "a//b"])
    def test_malformed_paths_rejected(self, bad):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter(bad)


class TestPercentile:
    """Bucket-interpolated percentiles pinned on known distributions."""

    def uniform_0_to_99(self):
        # Buckets are left-closed ([lo, hi)), so 0..99 fills each decade
        # bucket with exactly ten observations.
        h = MetricsRegistry().histogram(
            "lat", bounds=[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        )
        for v in range(100):
            h.observe(v)
        return h

    def test_uniform_pins_p50_p95_p99(self):
        h = self.uniform_0_to_99()
        # p50 interpolates to the exact bucket edge.  p95/p99 land in the
        # last occupied bucket, whose upper edge clamps to the observed
        # max (99, not the bound 100): 90 + 9 * 0.5 and 90 + 9 * 0.9.
        assert h.percentile(50) == pytest.approx(50.0)
        assert h.percentile(95) == pytest.approx(94.5)
        assert h.percentile(99) == pytest.approx(98.1)

    def test_extremes_clamp_to_observed_range(self):
        h = self.uniform_0_to_99()
        assert h.percentile(0) == 0.0    # observed min
        assert h.percentile(100) == 99.0  # observed max, not bucket edge 100

    def test_single_value_every_percentile(self):
        h = MetricsRegistry().histogram("lat", bounds=[8, 64])
        h.observe(42.0)
        for q in (0, 50, 99, 100):
            assert h.percentile(q) == 42.0

    def test_two_point_distribution(self):
        h = MetricsRegistry().histogram("lat", bounds=[10, 20])
        for _ in range(90):
            h.observe(5.0)
        for _ in range(10):
            h.observe(15.0)
        # p50 sits inside the first bucket: min=5 to bound 10, rank 50 of 90.
        assert h.percentile(50) == pytest.approx(5.0 + (10 - 5) * (50 / 90))
        # p99 sits in the second bucket: 10..max=15, rank 99 -> 9 of 10 into it.
        assert h.percentile(99) == pytest.approx(10 + (15 - 10) * 0.9)

    def test_overflow_bucket_uses_observed_max(self):
        h = MetricsRegistry().histogram("lat", bounds=[10])
        for v in (100.0, 200.0, 300.0, 400.0):
            h.observe(v)
        assert h.percentile(100) == 400.0
        assert h.percentile(50) == pytest.approx(100 + (400 - 100) * 0.5)

    def test_empty_histogram_is_zero(self):
        h = MetricsRegistry().histogram("lat")
        assert h.percentile(99) == 0.0

    def test_out_of_range_rejected(self):
        h = self.uniform_0_to_99()
        for bad in (-1, 101):
            with pytest.raises(TelemetryError):
                h.percentile(bad)

    def test_percentile_monotone_in_q(self):
        h = MetricsRegistry().histogram("lat", bounds=[1, 2, 4, 8, 16, 32])
        for v in (0.5, 1.5, 1.7, 3.0, 6.0, 7.5, 20.0, 40.0, 41.0):
            h.observe(v)
        estimates = [h.percentile(q) for q in range(0, 101, 5)]
        assert estimates == sorted(estimates)
        assert estimates[0] >= 0.5
        assert estimates[-1] <= 41.0


class TestMerge:
    def test_counters_add_gauges_keep_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("packets").add(3)
        b.counter("packets").add(4)
        a.gauge("depth").set(2)
        b.gauge("depth").set(7)
        a.merge(b)
        assert a.counters["packets"].value == 7
        assert a.gauges["depth"].value == 7

    def test_histograms_and_timers_fold(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", bounds=[10]).observe(5)
        b.histogram("lat", bounds=[10]).observe(50)
        a.timer("t").record(1)
        b.timer("t").record(9)
        a.merge(b)
        h = a.histograms["lat"]
        assert h.bucket_counts == [1, 1]
        assert (h.min, h.max) == (5, 50)
        t = a.timers["t"]
        assert (t.count, t.min, t.max) == (2, 1, 9)

    def test_mismatched_histogram_bounds_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=[1])
        b.histogram("h", bounds=[2])
        with pytest.raises(TelemetryError):
            a.merge(b)

    def test_merged_of_per_core_registries(self):
        cores = []
        for i in range(3):
            r = MetricsRegistry()
            r.counter("chip/instructions").add(10 * (i + 1))
            cores.append(r)
        total = MetricsRegistry.merged(cores)
        assert total.counters["chip/instructions"].value == 60

    def test_merged_of_nothing_is_an_empty_registry(self):
        """Zero shards is a legal aggregation input (identity element) —
        sharding callers must not have to special-case it."""
        total = MetricsRegistry.merged([])
        assert total.counters == {}
        assert total.gauges == {}
        assert total.histograms == {}
        assert total.timers == {}

    def test_merged_of_empty_is_identity_under_merge(self):
        r = MetricsRegistry()
        r.counter("c").add(5)
        merged = MetricsRegistry.merged([])
        merged.merge(r)
        assert merged.counters["c"].value == 5


class TestExport:
    def test_json_export_is_deterministic_and_loadable(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").add(2)
            reg.counter("a").add(1)
            reg.histogram("h").observe(3)
            reg.timer("t").record(4)
            return reg

        j1, j2 = build().to_json(), build().to_json()
        assert j1 == j2
        loaded = json.loads(j1)
        assert set(loaded) == {
            "counters", "gauges", "histograms", "timers", "series",
        }
        assert loaded["counters"] == {"a": 1, "b": 2}
