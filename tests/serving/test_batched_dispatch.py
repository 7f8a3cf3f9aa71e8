"""Weight-stationary request batching in the serving event loop.

``ServingSimulator(batch_requests=R)`` lets a free server pull up to R
queued requests of one tenant into a single dispatch, served at the
policy's :meth:`batched_service_ms` — staging paid once, per-request
remainder R times.  The default R=1 must reproduce the historical
one-at-a-time loop exactly.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.nn.workloads import small_cnn_spec
from repro.serving.arrivals import PeriodicArrivals, PoissonArrivals
from repro.serving.policies import FixedServicePolicy, ServingPolicy
from repro.serving.simulator import ServingSimulator
from repro.serving.tenancy import TenantSpec

NET = small_cnn_spec()


def tenant(name, arrivals, **kw):
    return TenantSpec(name=name, network=NET, arrivals=arrivals, **kw)


def latencies(report):
    """Each completed request's latency, in completion order (needs
    ``collect_timelines=True``)."""
    return [timeline.end_to_end for timeline in report.timelines]


class TestBatchedServiceMs:
    def test_base_policy_has_no_amortization(self):
        policy = FixedServicePolicy({"a": 3.0})
        policy.prepare([tenant("a", PeriodicArrivals(10.0))])
        assert ServingPolicy.batched_service_ms(policy, "a", 4) == 12.0

    def test_staging_amortizes(self):
        policy = FixedServicePolicy({"a": 3.0}, staging_ms={"a": 2.0})
        assert policy.batched_service_ms("a", 1) == 3.0
        assert policy.batched_service_ms("a", 4) == 2.0 + 4 * 1.0

    def test_count_one_is_exact_service_time(self):
        policy = FixedServicePolicy({"a": 0.3}, staging_ms={"a": 0.1})
        assert policy.batched_service_ms("a", 1) == policy._fixed["a"]

    def test_count_must_be_positive(self):
        policy = FixedServicePolicy({"a": 3.0})
        with pytest.raises(SimulationError):
            policy.batched_service_ms("a", 0)

    def test_staging_must_fit_inside_service_time(self):
        with pytest.raises(SimulationError):
            FixedServicePolicy({"a": 3.0}, staging_ms={"a": 4.0})
        with pytest.raises(SimulationError):
            FixedServicePolicy({"a": 3.0}, staging_ms={"a": -0.5})


class TestSimulatorValidation:
    def test_batch_requests_must_be_positive(self):
        with pytest.raises(SimulationError):
            ServingSimulator(FixedServicePolicy({"a": 1.0}), batch_requests=0)

    def test_batch_requests_must_be_integral(self):
        policy = FixedServicePolicy({"a": 1.0})
        with pytest.raises(SimulationError, match="integer"):
            ServingSimulator(policy, batch_requests=2.5)
        assert ServingSimulator(policy, batch_requests=np.int64(3)).batch_requests == 3


def _poisson_tenants():
    return [
        tenant("a", PoissonArrivals(900, seed=7), deadline_ms=4.0),
        tenant("b", PoissonArrivals(500, seed=8), deadline_ms=6.0,
               queue_capacity=32),
    ]


class TestDefaultIsHistoricalLoop:
    def test_r1_run_is_byte_identical(self):
        policy = FixedServicePolicy({"a": 0.8, "b": 1.4},
                                    staging_ms={"a": 0.5, "b": 0.9})
        base = ServingSimulator(policy, collect_timelines=True).run(
            _poisson_tenants(), 500.0
        )
        r1 = ServingSimulator(
            policy, batch_requests=1, collect_timelines=True
        ).run(_poisson_tenants(), 500.0)
        for name in ("a", "b"):
            assert latencies(base.reports[name]) == latencies(r1.reports[name])
            assert base.reports[name].arrivals == r1.reports[name].arrivals
            assert base.reports[name].shed == r1.reports[name].shed
        assert base.server_busy_ms == r1.server_busy_ms


class TestBatchedDispatch:
    def test_exact_batch_timeline(self):
        # Service 3 ms (2 ms of it staging), arrivals every 1 ms. The
        # t=0 request serves alone (finish 3).  At t=3 the queued t=1,2
        # arrivals dispatch as one batch: 2 + 2*(3-2) = 4 ms, both
        # finishing at 7 and billed 2 ms of service each.
        policy = FixedServicePolicy({"a": 3.0}, staging_ms={"a": 2.0})
        result = ServingSimulator(
            policy, batch_requests=2, collect_timelines=True
        ).run([tenant("a", PeriodicArrivals(1.0))], 8.0)
        report = result.reports["a"]
        assert report.arrivals == 8  # t = 0 .. 7
        # Completions inside the window: the solo t=0 request and the
        # (t=1, t=2) batch; later batches finish past the 8 ms window.
        assert latencies(report) == [3.0, 6.0, 5.0]
        assert report.completed == 3

    def test_batch_limited_to_batch_requests(self):
        # Six requests queue behind the first; with R=3 the backlog
        # drains as batches of 3, never more.
        policy = FixedServicePolicy({"a": 7.0}, staging_ms={"a": 6.0})
        result = ServingSimulator(
            policy, batch_requests=3, collect_timelines=True
        ).run([tenant("a", PeriodicArrivals(1.0))], 7.5)
        report = result.reports["a"]
        assert report.arrivals == 8
        # t=0 alone (finish 7); t=1..6 would be 6 ready at t=7 but only
        # 3 batch: 6 + 3*1 = 9 ms (finish 16 > window, overrun).
        assert latencies(report) == [7.0]
        assert report.overrun > 0

    def test_batching_improves_overloaded_throughput(self):
        def run(batch_requests):
            policy = FixedServicePolicy(
                {"a": 1.0}, staging_ms={"a": 0.8}
            )
            return ServingSimulator(
                policy, batch_requests=batch_requests
            ).run(
                [tenant("a", PoissonArrivals(2500, seed=9),
                        queue_capacity=128, deadline_ms=100.0)],
                400.0,
            )

        unbatched = run(1)
        batched = run(8)
        assert batched.reports["a"].completed > unbatched.reports["a"].completed
        assert batched.reports["a"].shed < unbatched.reports["a"].shed
