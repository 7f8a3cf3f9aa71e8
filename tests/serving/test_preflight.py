"""Serving admission: the static pre-flight gate on the partition layout."""

import pytest

from repro.errors import PlanVerificationError
from repro.serving import (
    ElasticPolicy,
    FixedServicePolicy,
    PeriodicArrivals,
    ServingSimulator,
    StaticPartitionPolicy,
    TenantSpec,
    smoke_tenants,
)
from repro.serving.scenarios import mixed_rate_tenants


class OverlappingPolicy(StaticPartitionPolicy):
    """A deliberately broken partitioner: every tenant at region 0."""

    def region_starts(self):
        return {name: 0 for name in super().region_starts()}


class TestPolicyPreflight:
    def test_static_smoke_layout_is_clean(self):
        policy = StaticPartitionPolicy()
        tenants = smoke_tenants()
        policy.prepare(tenants)
        report = policy.preflight(tenants)
        assert report is not None
        assert report.ok, report.render()

    def test_elastic_mixed_rate_layout_is_clean(self):
        policy = ElasticPolicy()
        tenants = mixed_rate_tenants()
        policy.prepare(tenants)
        report = policy.preflight(tenants)
        assert report is not None
        assert report.ok, report.render()

    def test_unprepared_policy_has_nothing_to_check(self):
        assert StaticPartitionPolicy().preflight([]) is None
        assert ElasticPolicy().preflight([]) is None

    def test_base_policy_returns_none(self):
        policy = FixedServicePolicy({"a": 1.0})
        tenants = [
            TenantSpec("a", None, PeriodicArrivals(100.0), deadline_ms=50.0)
        ]
        assert policy.preflight(tenants) is None

    def test_overlapping_layout_is_flagged(self):
        policy = OverlappingPolicy()
        tenants = smoke_tenants()
        policy.prepare(tenants)
        report = policy.preflight(tenants)
        assert report is not None and not report.ok
        assert any(d.rule == "PLAN606" for d in report.diagnostics)


class TestSimulatorAdmission:
    def test_clean_layout_is_admitted(self):
        result = ServingSimulator(StaticPartitionPolicy()).run(
            smoke_tenants(), duration_ms=20.0
        )
        assert result.total_shed == 0

    def test_overlapping_layout_is_rejected(self):
        simulator = ServingSimulator(OverlappingPolicy())
        with pytest.raises(PlanVerificationError) as excinfo:
            simulator.run(smoke_tenants(), duration_ms=20.0)
        assert "PLAN606" in str(excinfo.value)
        assert excinfo.value.report is not None

    def test_preflight_false_opts_out(self):
        simulator = ServingSimulator(OverlappingPolicy(), preflight=False)
        result = simulator.run(smoke_tenants(), duration_ms=20.0)
        assert result.reports  # runs to completion, gate disabled
