"""The serving event loop: exact latencies on scripted service times."""

import math

import pytest

from repro import telemetry
from repro.errors import SimulationError
from repro.nn.workloads import small_cnn_spec
from repro.serving.arrivals import (
    PeriodicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serving.policies import FixedServicePolicy, ResizeAction
from repro.serving.simulator import ServingSimulator
from repro.serving.tenancy import TenantSpec
from tests.serving.closed_loop import ClosedLoopArrivals

NET = small_cnn_spec()


def tenant(name, arrivals, **kw):
    return TenantSpec(name=name, network=NET, arrivals=arrivals, **kw)


def latencies(report):
    """Each completed request's latency, in completion order (needs
    ``collect_timelines=True``)."""
    return [timeline.end_to_end for timeline in report.timelines]


class TestSingleServer:
    def test_idle_server_serves_immediately(self):
        policy = FixedServicePolicy({"a": 2.0})
        result = ServingSimulator(policy, collect_timelines=True).run(
            [tenant("a", PeriodicArrivals(10.0))], 35.0
        )
        report = result.reports["a"]
        assert report.arrivals == 4  # t = 0, 10, 20, 30
        assert report.completed == 4
        assert latencies(report) == [2.0, 2.0, 2.0, 2.0]
        assert report.queue_wait_ms_total == 0.0

    def test_backlog_queues_fifo(self):
        # Service 3 ms, arrivals every 1 ms: each request waits for all
        # earlier ones.  latency_k = (k+1)*3 - k*1.
        policy = FixedServicePolicy({"a": 3.0})
        result = ServingSimulator(policy, collect_timelines=True).run(
            [tenant("a", PeriodicArrivals(1.0))], 4.0
        )
        assert result.reports["a"].arrivals == 4
        # finish times: 3, 6, 9, 12; only the first lands inside 4 ms.
        assert result.reports["a"].completed == 1
        assert result.reports["a"].overrun == 3
        assert latencies(result.reports["a"]) == [3.0]

    def test_utilization_and_busy_time(self):
        policy = FixedServicePolicy({"a": 2.0})
        result = ServingSimulator(policy).run(
            [tenant("a", PeriodicArrivals(4.0))], 40.0
        )
        assert result.server_busy_ms["a"] == pytest.approx(20.0)
        assert result.utilization("a") == pytest.approx(0.5)

    def test_deadlines(self):
        policy = FixedServicePolicy({"a": 5.0})
        result = ServingSimulator(policy).run(
            [tenant("a", PeriodicArrivals(2.0), deadline_ms=6.0)], 20.0
        )
        report = result.reports["a"]
        # Queueing pushes later requests past the 6 ms relative deadline.
        assert report.deadline_misses > 0
        assert report.deadline_miss_rate == pytest.approx(
            report.deadline_misses / report.completed
        )


class TestAdmissionControl:
    def test_bounded_queue_sheds_and_reports(self):
        policy = FixedServicePolicy({"a": 10.0})
        result = ServingSimulator(policy).run(
            [tenant("a", PeriodicArrivals(1.0), queue_capacity=2)], 30.0
        )
        report = result.reports["a"]
        assert report.shed > 0
        assert report.arrivals == report.admitted + report.shed
        assert result.total_shed == report.shed

    def test_unbounded_queue_never_sheds(self):
        policy = FixedServicePolicy({"a": 10.0})
        result = ServingSimulator(policy).run(
            [tenant("a", PeriodicArrivals(1.0))], 30.0
        )
        assert result.reports["a"].shed == 0

    def test_edf_prioritizes_urgent_tenant(self):
        # One shared server, 1 ms services.  Three lax requests arrive
        # just before one urgent request; under FIFO the urgent one waits
        # behind all of them and misses, under EDF it goes first.
        def tenants():
            return [
                tenant("lax", TraceArrivals([0.0, 0.1, 0.2]), deadline_ms=100.0),
                tenant("urgent", TraceArrivals([0.5]), deadline_ms=2.0),
            ]

        policy = {"lax": 1.0, "urgent": 1.0}
        fifo = ServingSimulator(
            FixedServicePolicy(policy, shared_server="chip"), discipline="fifo"
        ).run(tenants(), 50.0)
        edf = ServingSimulator(
            FixedServicePolicy(policy, shared_server="chip"), discipline="edf"
        ).run(tenants(), 50.0)
        assert fifo.reports["urgent"].deadline_misses == 1
        assert edf.reports["urgent"].deadline_misses == 0

    def test_priority_beats_arrival_order(self):
        # Server busy until t=3; low arrives at 1, high at 2; the high-
        # priority tenant is picked first when the server frees.
        def tenants():
            return [
                tenant("first", TraceArrivals([0.0])),
                tenant("low", TraceArrivals([1.0])),
                tenant("high", TraceArrivals([2.0]), priority=1),
            ]

        policy = FixedServicePolicy(
            {"first": 3.0, "low": 1.0, "high": 1.0}, shared_server="chip"
        )
        result = ServingSimulator(policy, collect_timelines=True).run(
            tenants(), 50.0
        )
        assert latencies(result.reports["high"]) == [2.0]  # 2 -> 4
        assert latencies(result.reports["low"]) == [4.0]   # 1 -> 5


class TestResizeStall:
    class OneResize(FixedServicePolicy):
        """Scripted: a single resize at the first control tick."""

        name = "scripted"
        control_interval_ms = 10.0

        def __init__(self, service_ms, stall_ms):
            super().__init__(service_ms)
            self.stall_ms = stall_ms
            self._fired = False

        def on_interval(self, now_ms, observations):
            if self._fired:
                return None
            self._fired = True
            return ResizeAction(
                shares={}, region_starts={},
                stall_ms={name: self.stall_ms for name in self._servers},
            )

    def test_request_waits_out_the_stall_no_lost_time(self):
        # Tick at t=10 stalls the partition until t=35.  The request
        # arriving at t=20 starts exactly at t=35 — the dequeue-to-start
        # wait is preserved in its latency, not dropped.
        policy = self.OneResize({"a": 1.0}, stall_ms=25.0)
        result = ServingSimulator(policy, collect_timelines=True).run(
            [tenant("a", PeriodicArrivals(20.0))], 100.0
        )
        report = result.reports["a"]
        # arrivals at 0, 20, 40, 60, 80
        assert latencies(report) == [1.0, 16.0, 1.0, 1.0, 1.0]
        assert report.queue_wait_ms_total == pytest.approx(15.0)

    def test_restaging_begins_after_inflight_drains(self):
        # Service 20 ms: the request in flight at the tick finishes at
        # t=20, then the 5 ms restage runs, so the request queued at
        # t=12 starts at 25 and finishes at 45.
        policy = self.OneResize({"a": 20.0}, stall_ms=5.0)
        result = ServingSimulator(policy, collect_timelines=True).run(
            [tenant("a", TraceArrivals([0.0, 12.0]))], 100.0
        )
        assert latencies(result.reports["a"]) == [20.0, 33.0]
        assert len(result.resizes) == 1
        assert result.resizes[0].time_ms == 10.0


class TestClosedLoop:
    def test_next_request_follows_completion(self):
        policy = FixedServicePolicy({"a": 3.0})
        result = ServingSimulator(policy, collect_timelines=True).run(
            [tenant("a", ClosedLoopArrivals(2.0))], 20.0
        )
        report = result.reports["a"]
        # arrive 0, finish 3; arrive 5, finish 8; arrive 10, finish 13;
        # arrive 15, finish 18; arrive 20 is outside the window.
        assert report.arrivals == 4
        assert latencies(report) == [3.0, 3.0, 3.0, 3.0]
        assert report.queue_wait_ms_total == 0.0


class TestDeterminism:
    def test_two_seeded_runs_export_identical_json(self):
        tenants = [
            tenant("a", PoissonArrivals(700, seed=11), deadline_ms=4.0,
                   queue_capacity=8),
            tenant("b", PoissonArrivals(300, seed=12), deadline_ms=9.0),
        ]
        runs = [
            ServingSimulator(
                FixedServicePolicy({"a": 1.0, "b": 2.5})
            ).run(tenants, 150.0).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_declaration_order_breaks_simultaneous_arrival_ties(self):
        # Two tenants on one server arrive together every 10 ms.  The
        # kernel dispatches simultaneous events by (time, seq), so the
        # tenant declared first is admitted, and served, first at every
        # tie; swapping the declaration order swaps who waits.
        def run(order):
            return ServingSimulator(
                FixedServicePolicy({"a": 3.0, "b": 3.0}, shared_server="chip"),
                collect_timelines=True,
            ).run([tenant(n, PeriodicArrivals(10.0)) for n in order], 35.0)

        for order in (("a", "b"), ("b", "a")):
            result = run(order)
            first, second = (result.reports[n] for n in order)
            assert (first.completed, first.queue_wait_ms_total) == (4, 0.0)
            assert latencies(first) == [3.0, 3.0, 3.0, 3.0]
            # Each waits 3 ms behind the first; the t=30 one ends at 36.
            assert (second.completed, second.queue_wait_ms_total) == (3, 9.0)
            assert latencies(second) == [6.0, 6.0, 6.0]
            assert second.overrun == 1
            assert run(order).to_json() == result.to_json()


class TestTelemetry:
    def test_counters_histograms_and_trace(self):
        sink = telemetry.Telemetry()
        policy = FixedServicePolicy({"a": 2.0})
        ServingSimulator(policy, telemetry=sink).run(
            [tenant("a", PeriodicArrivals(5.0), deadline_ms=1.0)], 20.0
        )
        counters = sink.registry.as_dict()["counters"]
        assert counters["serving/tenant/a/arrivals"] == 4
        assert counters["serving/tenant/a/completed"] == 4
        assert counters["serving/tenant/a/deadline_misses"] == 4
        hist = sink.registry.histograms["serving/tenant/a/latency_ms"]
        assert hist.count == 4
        spans = [e for e in sink.trace.events if e.track == "serving/server/a"]
        assert len(spans) == 4
        telemetry.validate_chrome_trace(sink.trace.to_chrome())


class TestValidation:
    def test_no_tenants(self):
        with pytest.raises(SimulationError):
            ServingSimulator(FixedServicePolicy({})).run([], 10.0)

    def test_duplicate_names(self):
        ts = [tenant("a", PeriodicArrivals(1.0)),
              tenant("a", PeriodicArrivals(2.0))]
        with pytest.raises(SimulationError):
            ServingSimulator(FixedServicePolicy({"a": 1.0})).run(ts, 10.0)

    def test_bad_duration(self):
        with pytest.raises(SimulationError):
            ServingSimulator(FixedServicePolicy({"a": 1.0})).run(
                [tenant("a", PeriodicArrivals(1.0))], 0.0
            )

    def test_missing_fixed_service(self):
        with pytest.raises(SimulationError):
            ServingSimulator(FixedServicePolicy({})).run(
                [tenant("a", PeriodicArrivals(1.0))], 10.0
            )

    def test_unknown_discipline(self):
        with pytest.raises(SimulationError):
            ServingSimulator(FixedServicePolicy({"a": 1.0}), discipline="lifo")

    def test_best_effort_deadline_is_inf(self):
        policy = FixedServicePolicy({"a": 1e6})
        result = ServingSimulator(policy).run(
            [tenant("a", TraceArrivals([0.0]), deadline_ms=math.inf)], 1e7
        )
        assert result.reports["a"].deadline_misses == 0

    def test_nan_service_time_raises(self):
        # A NaN service time gives a NaN completion time.  The event
        # kernel must refuse it: accepted, every request of tenant a
        # would be billed as an overrun and its busy time as NaN.
        policy = FixedServicePolicy({"a": math.nan, "b": 1.0})
        tenants = [
            tenant("a", PoissonArrivals(500, seed=1)),
            tenant("b", PoissonArrivals(500, seed=2)),
        ]
        with pytest.raises(SimulationError, match="t=nan"):
            ServingSimulator(policy).run(tenants, 100.0)

    @pytest.mark.parametrize("deadline", [math.nan, 0.0, -5.0])
    def test_non_positive_deadline_raises(self, deadline):
        # A NaN deadline would count every request as a miss and, under
        # EDF on a shared server, misrank the tenant's queue head.
        policy = FixedServicePolicy({"a": 1.0, "b": 1.0}, shared_server="chip")
        tenants = [
            tenant("a", PeriodicArrivals(2.0), deadline_ms=5.0),
            tenant("b", PeriodicArrivals(2.0), deadline_ms=deadline),
        ]
        with pytest.raises(SimulationError, match="tenant 'b'"):
            ServingSimulator(policy, discipline="edf").run(tenants, 20.0)
