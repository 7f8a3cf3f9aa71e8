"""Report documents: builders, schema validation, and the HTML renderer."""

import copy
import json

import pytest

from repro import telemetry
from repro.errors import ObservabilityError
from repro.nn.workloads import small_cnn_spec
from repro.obs.html import render_html
from repro.obs.monitor import SLOConfig, SLOMonitor
from repro.obs.report import (
    SCHEMA,
    build_serving_report,
    build_xcheck_report,
    validate_report,
)
from repro.serving.arrivals import PeriodicArrivals
from repro.serving.policies import FixedServicePolicy
from repro.serving.simulator import ServingSimulator
from repro.serving.tenancy import TenantSpec
from repro.sim import cross_check

NET = small_cnn_spec()


def run_serving():
    """A tiny deterministic serving run with telemetry + monitor."""
    tenants = [
        TenantSpec("a", NET, PeriodicArrivals(2.0), deadline_ms=1.0),
        TenantSpec("b", NET, PeriodicArrivals(3.0), deadline_ms=5.0),
    ]
    policy = FixedServicePolicy({"a": 1.5, "b": 0.5})  # tenant a always late
    sink = telemetry.Telemetry()
    monitor = SLOMonitor(SLOConfig(window_ms=10.0))
    simulator = ServingSimulator(policy, telemetry=sink, monitor=monitor)
    result = simulator.run(tenants, 60.0)
    series = sink.registry.as_dict()["series"]
    return result, series


@pytest.fixture(scope="module")
def serving_doc():
    result, series = run_serving()
    return build_serving_report(
        result, scenario="unit", window_ms=10.0, series=series
    )


@pytest.fixture(scope="module")
def xcheck_doc():
    xcheck = cross_check(small_cnn_spec(), backends=["analytic", "streaming"])
    return build_xcheck_report([xcheck])


class TestServingReport:
    def test_document_validates(self, serving_doc):
        assert serving_doc["schema"] == SCHEMA
        validate_report(serving_doc)

    def test_burn_rate_alert_present(self, serving_doc):
        kinds = {a["kind"] for a in serving_doc["alerts"]}
        assert "burn_rate" in kinds

    def test_series_carry_the_tenants(self, serving_doc):
        assert "serving/tenant/a/throughput" in serving_doc["series"]
        assert "serving/tenant/b/latency_windowed" in serving_doc["series"]

    def test_rebuild_is_byte_identical(self, serving_doc):
        result, series = run_serving()
        again = build_serving_report(
            result, scenario="unit", window_ms=10.0, series=series
        )
        assert json.dumps(again, sort_keys=True) == json.dumps(
            serving_doc, sort_keys=True
        )

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(schema="maicc-obs-report/999"),
        lambda d: d.pop("serving"),
        lambda d: d.pop("alerts"),
        lambda d: d["alerts"][0].pop("threshold"),
        lambda d: d["serving"]["tenants"]["a"]["attribution"]["categories"]
        .update({"service/compute": "warp-drive"}),
        lambda d: d["serving"]["tenants"]["a"]["attribution"]["phases"]
        .pop("queue"),
    ])
    def test_validation_rejects_mutations(self, serving_doc, mutate):
        doc = copy.deepcopy(serving_doc)
        mutate(doc)
        with pytest.raises(ObservabilityError):
            validate_report(doc)


class TestXCheckReport:
    def test_document_validates(self, xcheck_doc):
        validate_report(xcheck_doc)

    def test_tiers_carry_phase_decompositions(self, xcheck_doc):
        workload = xcheck_doc["workloads"][NET.name]
        for tier in workload["tiers"].values():
            assert tier["phases"]
            total = 0.0
            for duration in tier["phases"].values():
                total += duration
            assert total == tier["total_cycles"]

    def test_validation_rejects_missing_tier_key(self, xcheck_doc):
        doc = copy.deepcopy(xcheck_doc)
        next(iter(doc["workloads"].values()))["tiers"]["analytic"].pop(
            "latency_ms"
        )
        with pytest.raises(ObservabilityError):
            validate_report(doc)


class TestRenderHtml:
    def test_serving_page_is_self_contained(self, serving_doc):
        page = render_html(serving_doc)
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page
        assert "<svg" in page and "prefers-color-scheme: dark" in page
        for needle in ("burn_rate", "Per-tenant SLO", "Where the time went"):
            assert needle in page

    def test_xcheck_page_renders_tier_table(self, xcheck_doc):
        page = render_html(xcheck_doc)
        assert "analytic" in page and "streaming" in page
        assert "Cycle attribution by tier" in page

    def test_render_is_a_pure_function(self, serving_doc):
        assert render_html(serving_doc) == render_html(serving_doc)
