"""The serving attribution invariant, end to end.

Every billed completion decomposes into queue / admission / staging /
compute / ... phases whose left-to-right float sum reproduces the
request's end-to-end latency *bit-exactly*, in both queueing tiers
(streaming and event).  The per-tenant aggregate is byte-deterministic
across reruns and identical whether or not per-request timelines were
collected — the fast path and the collected path must never disagree.
"""

import json

import pytest

from repro.core.multi_dnn import MultiDNNScheduler
from repro.nn.workloads import small_cnn_spec
from repro.serving.arrivals import PeriodicArrivals, PoissonArrivals
from repro.serving.policies import FixedServicePolicy, StaticPartitionPolicy
from repro.serving.simulator import ServingSimulator
from repro.serving.tenancy import TenantSpec

NET = small_cnn_spec()


def fixed_tenants():
    return [
        TenantSpec("a", NET, PoissonArrivals(900, seed=11), deadline_ms=2.0),
        TenantSpec("b", NET, PoissonArrivals(600, seed=12), deadline_ms=3.0),
    ]


def fixed_policy():
    return FixedServicePolicy(
        {"a": 0.8, "b": 1.1}, staging_ms={"a": 0.3, "b": 0.4}
    )


def run_fixed(**kwargs):
    simulator = ServingSimulator(fixed_policy(), **kwargs)
    return simulator.run(fixed_tenants(), 60.0)


class TestPerRequestInvariant:
    @pytest.mark.parametrize("backend", ["streaming", "event"])
    def test_queueing_tiers_are_bit_exact(self, backend):
        scheduler = MultiDNNScheduler(backend=backend)
        policy = StaticPartitionPolicy(scheduler)
        tenants = [
            TenantSpec("a", NET, PeriodicArrivals(4.0), deadline_ms=20.0),
            TenantSpec("b", NET, PeriodicArrivals(6.0), deadline_ms=20.0),
        ]
        simulator = ServingSimulator(policy, collect_timelines=True)
        result = simulator.run(tenants, 40.0)
        checked = 0
        for report in result.reports.values():
            assert len(report.timelines) == report.completed
            for timeline in report.timelines:
                timeline.verify()  # left-to-right sum == end_to_end, exactly
                checked += 1
        assert checked > 0

    def test_batched_dispatch_keeps_the_invariant(self):
        result = run_fixed(batch_requests=4, collect_timelines=True)
        for report in result.reports.values():
            for timeline in report.timelines:
                timeline.verify()
            assert len(report.timelines) == report.completed

    def test_timeline_latency_matches_billed_latency(self):
        result = run_fixed(collect_timelines=True)
        for report in result.reports.values():
            # The histogram observes each billed latency in completion
            # order, the order the timelines are appended in.
            attributed = [t.end_to_end for t in report.timelines]
            acc = 0.0
            for latency in attributed:
                acc += latency
            assert acc == report.histogram.total
            assert len(attributed) == report.histogram.count
            assert min(attributed) == report.histogram.min
            assert max(attributed) == report.histogram.max


class TestAggregate:
    def test_sums_bit_exactly_to_the_histogram_total(self):
        result = run_fixed()
        for report in result.reports.values():
            acc = 0.0
            for duration in report.attribution.values():
                acc += duration
            assert acc == report.histogram.total

    def test_collect_on_and_off_agree(self):
        on = run_fixed(collect_timelines=True)
        off = run_fixed(collect_timelines=False)
        for name in on.reports:
            assert on.reports[name].attribution == off.reports[name].attribution
            assert (
                on.reports[name].attribution_categories
                == off.reports[name].attribution_categories
            )

    def test_reruns_export_byte_identical_attribution(self):
        dumps = [
            json.dumps(run_fixed().as_dict(), sort_keys=True)
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_every_phase_carries_a_category(self):
        result = run_fixed()
        for report in result.reports.values():
            assert set(report.attribution) == set(
                report.attribution_categories
            )
            assert report.attribution["queue"] == pytest.approx(
                report.queue_wait_ms_total
            )

    def test_attribution_can_be_disabled(self):
        result = run_fixed(attribution=False)
        for report in result.reports.values():
            assert report.attribution == {}
            assert report.timelines == []

    def test_fast_path_skips_timeline_objects(self):
        result = run_fixed()  # no sink, no collect_timelines
        for report in result.reports.values():
            assert report.timelines == []
            assert report.attribution  # aggregate still present
