"""The ChipHandle seam is a pure refactor: single-chip runs are pinned.

The golden hashes below were captured from the pre-refactor closure-based
``ServingSimulator.run`` (with the schema-only ``failed: 0`` counter
injected, since the field was added in the same change).  Any drift in
event ordering, accounting, or JSON layout fails these pins.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.serving import (
    ElasticPolicy,
    FixedServicePolicy,
    PeriodicArrivals,
    PoissonArrivals,
    ServiceModel,
    ServingSimulator,
    StaticPartitionPolicy,
    TenantSpec,
)
from repro.serving.scenarios import SCENARIOS
from repro.telemetry import Telemetry

GOLDEN = {
    "fixed_batched": "64ba882245493810befe5f86d73dc3a85f49b13d965c03a6db98d8789559641d",
    "smoke/static": "dd4314227736fd4d12fe4da29abdb4984cb0b62fce7f4bd3d48526e93d95317e",
    "smoke/elastic": "0f00dfbd713d6afb80ef2895de122204a5fa40599272a16e3cd6b7c03ded5b42",
    "bursty/edf": "266ef2839be2a85cc2ccca687f0cd4d88d234f891d4c0a53a917457a63e2a656",
}


def _pin(result) -> str:
    return hashlib.sha256(
        json.dumps(result.as_dict(), indent=2, sort_keys=True).encode()
    ).hexdigest()


def _stub_net() -> NetworkSpec:
    spec = ConvLayerSpec(index=0, name="stub", h=1, w=1, c=1, m=1)
    return NetworkSpec(name="stub", layers=(spec,))


def _fixed_tenants():
    net = _stub_net()
    return [
        TenantSpec(
            "a", net, PoissonArrivals(2200, seed=31),
            deadline_ms=50.0, queue_capacity=256,
        ),
        TenantSpec(
            "b", net, PoissonArrivals(1400, seed=32),
            deadline_ms=50.0, queue_capacity=256,
        ),
    ]


def _run_fixed_batched(telemetry=None):
    policy = FixedServicePolicy(
        {"a": 0.8, "b": 1.1}, staging_ms={"a": 0.6, "b": 0.8}
    )
    return ServingSimulator(
        policy, batch_requests=8, telemetry=telemetry
    ).run(_fixed_tenants(), 2000.0)


def _run_smoke_static(telemetry=None):
    build, duration = SCENARIOS["smoke"]
    return ServingSimulator(
        StaticPartitionPolicy(), telemetry=telemetry
    ).run(build(), duration)


def _run_smoke_elastic(telemetry=None):
    build, duration = SCENARIOS["smoke"]
    return ServingSimulator(
        ElasticPolicy(ServiceModel(), control_interval_ms=10.0),
        telemetry=telemetry,
    ).run(build(), duration)


def _run_bursty_edf(telemetry=None):
    build, duration = SCENARIOS["bursty"]
    return ServingSimulator(
        StaticPartitionPolicy(), discipline="edf", telemetry=telemetry
    ).run(build(), duration)


#: Pin name -> the run it pins.
RUNS = {
    "fixed_batched": _run_fixed_batched,
    "smoke/static": _run_smoke_static,
    "smoke/elastic": _run_smoke_elastic,
    "bursty/edf": _run_bursty_edf,
}


def test_fixed_batched_pinned():
    result = _run_fixed_batched()
    assert _pin(result) == GOLDEN["fixed_batched"]
    assert result.total_failed == 0


def test_smoke_static_pinned():
    assert _pin(_run_smoke_static()) == GOLDEN["smoke/static"]


def test_smoke_elastic_pinned():
    assert _pin(_run_smoke_elastic()) == GOLDEN["smoke/elastic"]


def test_bursty_edf_pinned():
    assert _pin(_run_bursty_edf()) == GOLDEN["bursty/edf"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pins_hold_under_an_enabled_sink(name):
    """The telemetry-on path bills exactly what the lean path does."""
    sink = Telemetry()
    assert _pin(RUNS[name](sink)) == GOLDEN[name]
    assert sink.registry.counters  # the sink really recorded the run


def test_halt_accounts_every_request():
    """A crash drains queues and in-flight work into ``failed`` — nothing
    is silently dropped: arrivals == completed + overrun + shed + failed."""
    policy = FixedServicePolicy(
        {"a": 0.8, "b": 1.1}, staging_ms={"a": 0.6, "b": 0.8}
    )
    sim = ServingSimulator(policy, batch_requests=8, collect_timelines=True)
    result = sim.run(_fixed_tenants(), 2000.0, halt_ms=900.0)
    assert result.total_failed > 0
    for report in result.reports.values():
        assert report.arrivals == (
            report.completed + report.overrun + report.shed + report.failed
        )
    # Completions strictly before the halt survive.
    assert result.total_completed > 0
    assert all(
        timeline.end_to_end >= 0.0
        for report in result.reports.values()
        for timeline in report.timelines
    )


def test_halt_bills_no_attribution_for_the_failed_batch():
    """The batch in flight at the halt fails and adds no phases: the
    tenant's aggregate equals the sum of its completed timelines."""
    policy = FixedServicePolicy({"a": 4.0}, staging_ms={"a": 1.0})
    sim = ServingSimulator(policy, collect_timelines=True)
    tenants = [TenantSpec("a", small_cnn_spec(), PeriodicArrivals(10.0))]
    report = sim.run(tenants, 40.0, halt_ms=22.0).reports["a"]
    assert (report.completed, report.failed) == (2, 2)
    summed = {}
    for timeline in report.timelines:
        for phase in timeline.phases:
            summed[phase.name] = summed.get(phase.name, 0.0) + phase.duration
    assert report.attribution == summed
    assert report.attribution["service/staging"] == 2.0
    assert report.attribution["service/compute"] == 6.0


def test_halt_rerun_byte_identical():
    policy = FixedServicePolicy(
        {"a": 0.8, "b": 1.1}, staging_ms={"a": 0.6, "b": 0.8}
    )

    def run_once() -> str:
        sim = ServingSimulator(policy, batch_requests=8)
        return sim.run(_fixed_tenants(), 2000.0, halt_ms=900.0).to_json()

    assert run_once() == run_once()
