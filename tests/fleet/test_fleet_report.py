"""Fleet report kind: schema validation and deterministic HTML panels."""

import pytest

from repro.errors import ObservabilityError
from repro.fleet import build_scenario
from repro.obs.report import build_fleet_report, validate_report
from repro.obs.html import render_html


def run_fleet(name, *, seed=7):
    scenario = build_scenario(name)
    return scenario.simulator(seed=seed).run(scenario.duration_ms)


@pytest.fixture(scope="module")
def crash_report():
    return build_fleet_report(run_fleet("chip-crash"))


class TestFleetReport:
    def test_validates_against_the_schema(self, crash_report):
        validate_report(crash_report)
        assert crash_report["kind"] == "fleet"
        assert crash_report["meta"]["scenario"] == "chip-crash"

    def test_validation_catches_a_gutted_totals_block(self, crash_report):
        broken = dict(crash_report)
        fleet = dict(broken["fleet"])
        totals = dict(fleet["totals"])
        del totals["conserved"]
        fleet["totals"] = totals
        broken["fleet"] = fleet
        with pytest.raises(ObservabilityError, match="missing key 'conserved'"):
            validate_report(broken)

    def test_html_carries_every_fleet_panel(self, crash_report):
        html = render_html(crash_report)
        for marker in (
            "Per-model fleet SLO",
            "Per-chip load",
            "Crash recoveries",
            "router shed",
        ):
            assert marker in html

    def test_html_bytes_are_deterministic(self, crash_report):
        again = build_fleet_report(run_fleet("chip-crash"))
        assert render_html(again) == render_html(crash_report)

    def test_autoscale_events_render(self):
        report = build_fleet_report(run_fleet("autoscale-burst"))
        validate_report(report)
        assert "Autoscale events" in render_html(report)
