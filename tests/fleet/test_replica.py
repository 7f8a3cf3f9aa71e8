"""One serving path: a fleet chip serves exactly as a single chip does.

A fleet chip runs :meth:`ServingSimulator.run` under a
:class:`~repro.fleet.replica.ReplicaPolicy`, the
:class:`~repro.serving.policies.FixedServicePolicy` over its replicas'
profiles.  Over the same routed trace it must bill, time and attribute
every request as the single chip does, batched or not, with or without
a staging share.
"""

import pytest

from repro.errors import SimulationError
from repro.fleet.profiles import ModelProfile
from repro.fleet.replica import ReplicaPolicy
from repro.fleet.simulator import ChipWorkload, run_chip
from repro.serving import FixedServicePolicy, ServingSimulator, TenantSpec, TraceArrivals

DURATION_MS = 12.0

#: name -> (service_ms, staging_ms, cores, routed arrival times).  Both
#: tenants arrive faster than they are served, so queues fill, batches
#: form, requests are shed and some finish past the window.
TENANTS = {
    "a": (1.0, 0.4, 8, [0.25 * k for k in range(40)]),
    "b": (0.6, 0.15, 4, [0.5 + 0.3 * k for k in range(30)]),
}
DEADLINE_MS = 6.0
QUEUE_CAPACITY = 16


def profiles(staged):
    return {
        name: ModelProfile(
            name, service, cores=cores, staging_ms=stage if staged else 0.0
        )
        for name, (service, stage, cores, _) in TENANTS.items()
    }


def tenants(table):
    return tuple(
        TenantSpec(
            name,
            p.stub_network(),
            TraceArrivals(TENANTS[name][3]),
            deadline_ms=DEADLINE_MS,
            queue_capacity=QUEUE_CAPACITY,
        )
        for name, p in table.items()
    )


def fleet_chip(staged, batch_requests):
    table = profiles(staged)
    workload = ChipWorkload(
        chip=0,
        duration_ms=DURATION_MS,
        batch_requests=batch_requests,
        policy=ReplicaPolicy(table),
        tenants=tenants(table),
    )
    result, _ = run_chip(workload)
    return result


def single_chip(staged, batch_requests):
    table = profiles(staged)
    policy = FixedServicePolicy(
        {name: p.service_ms for name, p in table.items()},
        staging_ms={name: p.staging_ms for name, p in table.items()},
    )
    return ServingSimulator(policy, batch_requests=batch_requests).run(
        tenants(table), DURATION_MS
    )


@pytest.mark.parametrize("staged", [True, False], ids=["staged", "unstaged"])
@pytest.mark.parametrize("batch_requests", [1, 4])
def test_fleet_chip_serves_as_a_single_chip(staged, batch_requests):
    fleet = fleet_chip(staged, batch_requests)
    chip = single_chip(staged, batch_requests)
    for name in TENANTS:
        assert fleet.reports[name].as_dict(DURATION_MS) == chip.reports[
            name
        ].as_dict(DURATION_MS)
    assert fleet.server_busy_ms == chip.server_busy_ms
    # The replica's share is its profile's cores.
    assert fleet.final_shares == {name: t[2] for name, t in TENANTS.items()}
    # The run exercises what it claims to: shed, overrun and (when
    # batching with a staging share) dispatches that amortize staging.
    report = fleet.reports["a"]
    assert report.shed > 0 and report.overrun > 0
    amortized = report.service_ms_total < report.completed * TENANTS["a"][0]
    assert amortized == (staged and batch_requests > 1)
    # A zero staging share is still attributed, as a 0.0 phase.
    assert list(report.attribution)[-2:] == ["service/staging", "service/compute"]
    assert (report.attribution["service/staging"] > 0.0) == staged


class TestModelProfile:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"cores": 0}, "cores"),
            ({"service_ms": 0.0}, "service_ms"),
            ({"staging_ms": -0.1}, "staging_ms"),
            ({"staging_ms": 1.5}, "staging_ms"),
        ],
    )
    def test_rejects_invalid_values(self, kwargs, match):
        fields = {"name": "m", "service_ms": 1.0, **kwargs}
        with pytest.raises(SimulationError, match=match):
            ModelProfile(**fields)

    def test_staging_may_fill_the_whole_service_time(self):
        assert ModelProfile("m", 1.0, staging_ms=1.0).staging_ms == 1.0
