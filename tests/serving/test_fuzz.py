"""The serving invariants on drawn runs, not only the shipped scenarios.

One bounded property over :class:`ServingSimulator` runs of scripted
policies (:class:`FixedServicePolicy` on shared or dedicated servers,
:class:`ReplicaPolicy` with degradation steps): every arrival is
accounted exactly once, every completion's timeline sums bit-exactly to
its latency, each tenant's aggregate attribution sums bit-exactly to its
histogram total, and a rerun is byte-identical.

A second property checks the chip loop against an independent oracle:
one FIFO tenant on its own server with a fixed service time ``s``
departs at ``d_n = max(a_n, d_{n-1}) + s`` (Lindley's recursion), so
every completed request's latency is known exactly.  On a degraded chip
the service window is stretched by the step factor at the dispatch
instant: ``d_n = start_n + s * step_factor(steps, start_n)`` with
``start_n = max(a_n, d_{n-1})``.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.fleet.failures import step_factor  # noqa: E402
from repro.fleet.profiles import ModelProfile  # noqa: E402
from repro.fleet.replica import ReplicaPolicy  # noqa: E402
from repro.nn.workloads import small_cnn_spec  # noqa: E402
from repro.serving.arrivals import (  # noqa: E402
    PeriodicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serving.policies import FixedServicePolicy  # noqa: E402
from repro.serving.simulator import ServingSimulator  # noqa: E402
from repro.serving.tenancy import TenantSpec  # noqa: E402
from tests.serving.closed_loop import ClosedLoopArrivals  # noqa: E402

NET = small_cnn_spec()
DURATION_MS = 40.0

_ms = st.floats(min_value=0.05, max_value=6.0)


@st.composite
def _arrivals(draw):
    kind = draw(st.sampled_from(("poisson", "periodic", "trace", "closed")))
    if kind == "poisson":
        return PoissonArrivals(
            draw(st.floats(min_value=20.0, max_value=2000.0)),
            seed=draw(st.integers(0, 2**16)),
        )
    if kind == "periodic":
        return PeriodicArrivals(
            draw(st.floats(min_value=0.2, max_value=10.0)),
            offset_ms=draw(st.floats(min_value=0.0, max_value=5.0)),
        )
    if kind == "trace":
        times = draw(st.lists(
            st.floats(min_value=0.0, max_value=DURATION_MS + 5.0),
            max_size=40,
        ))
        return TraceArrivals(sorted(times))
    return ClosedLoopArrivals(
        draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                      min_size=1, max_size=4)),
        offset_ms=draw(st.floats(min_value=0.0, max_value=5.0)),
    )


@st.composite
def _runs(draw):
    """One drawn run: ``(build_policy, tenants, settings, halt_ms)``."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    service = {n: draw(_ms) for n in names}
    staging = {
        n: service[n] * draw(st.floats(min_value=0.0, max_value=1.0))
        for n in names
    }
    if draw(st.booleans()):
        shared = draw(st.sampled_from((None, "chip")))

        def build_policy():
            return FixedServicePolicy(
                service, shared_server=shared, staging_ms=staging
            )
    else:
        steps = draw(st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=DURATION_MS),
                      st.floats(min_value=0.25, max_value=4.0)),
            max_size=3,
        ))
        profiles = {
            n: ModelProfile(n, service[n], staging_ms=staging[n])
            for n in names
        }

        def build_policy():
            return ReplicaPolicy(profiles, degradation=steps)
    tenants = [
        TenantSpec(
            name=n,
            network=NET,
            arrivals=draw(_arrivals()),
            deadline_ms=draw(st.floats(min_value=0.5, max_value=30.0)),
            priority=draw(st.integers(0, 2)),
            queue_capacity=draw(st.one_of(st.none(), st.integers(1, 6))),
        )
        for n in names
    ]
    options = {
        "discipline": draw(st.sampled_from(("fifo", "edf"))),
        "batch_requests": draw(st.integers(1, 4)),
    }
    halt_ms = draw(st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=DURATION_MS)
    ))
    return build_policy, tenants, options, halt_ms


def _left_sum(values):
    acc = 0.0
    for value in values:
        acc += value
    return acc


@settings(max_examples=50, deadline=2000)
@given(run=_runs())
def test_serving_invariants_hold_on_drawn_runs(run):
    build_policy, tenants, options, halt_ms = run

    def serve():
        return ServingSimulator(
            build_policy(), collect_timelines=True, **options
        ).run(tenants, DURATION_MS, halt_ms=halt_ms)

    result = serve()
    for name, report in result.reports.items():
        assert report.arrivals == (
            report.completed + report.overrun + report.failed + report.shed
        ), name
        assert len(report.timelines) == report.completed, name
        for timeline in report.timelines:
            assert timeline.tenant == name
            assert _left_sum(timeline.durations) == timeline.end_to_end
        assert _left_sum(report.attribution.values()) == report.histogram.total
    assert serve().to_json() == result.to_json()


#: Arrival times on a coarse grid (ties, and arrivals that coincide with
#: a departure) mixed with arbitrary floats.
_times = st.one_of(
    st.integers(0, 2 * int(DURATION_MS) + 10).map(lambda k: k * 0.5),
    st.floats(min_value=0.0, max_value=DURATION_MS + 5.0),
)


#: Degradation steps, sorted as the policy sorts them.  Their start
#: times share the arrivals' grid, so a dispatch can land exactly on a
#: step and two steps can share one start.
_steps = st.lists(
    st.tuples(_times, st.floats(min_value=0.25, max_value=4.0)),
    max_size=4,
).map(sorted)


@settings(max_examples=100, deadline=2000)
@given(
    times=st.lists(_times, max_size=60).map(sorted),
    service=st.one_of(st.integers(1, 12).map(lambda k: k * 0.5), _ms),
    steps=_steps,
)
# Request 1 waits for request 0 and starts at 1.0, on the two steps that
# share that start (the later, 2.0, applies); request 4 arrives at an
# idle server exactly on the step at 9.5.
@example(
    times=[0.0, 0.5, 1.0, 1.0, 9.5],
    service=1.0,
    steps=[(1.0, 0.5), (1.0, 2.0), (9.5, 3.0)],
)
def test_dedicated_fifo_server_follows_lindley(times, service, steps):
    tenant = TenantSpec(name="a", network=NET, arrivals=TraceArrivals(times))
    policy = ReplicaPolicy(
        {"a": ModelProfile("a", service)}, degradation=steps
    )
    assert list(policy.degradation) == steps
    report = ServingSimulator(policy, collect_timelines=True).run(
        [tenant], DURATION_MS
    ).reports["a"]

    arrivals = [t for t in times if t < DURATION_MS]
    expected = {}
    depart = -math.inf
    for n, arrival in enumerate(arrivals):
        start = max(arrival, depart)
        depart = start + service * step_factor(steps, start)
        if depart <= DURATION_MS:
            expected[n] = depart - arrival
    assert report.arrivals == len(arrivals)
    assert report.completed + report.overrun == report.arrivals
    assert {t.index: t.end_to_end for t in report.timelines} == expected
