"""Cross-tier differential harness: envelopes, evidence, failure modes."""

import json

import pytest

from repro.nn.workloads import small_cnn_spec
from repro.sim import DEFAULT_ENVELOPE, cross_check, simulate


@pytest.fixture(scope="module")
def report():
    return cross_check(small_cnn_spec())


class TestAgreement:
    def test_all_tiers_inside_envelope(self, report):
        assert report.ok

    def test_reference_leads_and_ratios_are_relative_to_it(self, report):
        first = report.checks[0]
        assert first.backend == report.reference == "streaming"
        assert first.ratio == 1.0
        others = {check.backend for check in report.checks[1:]}
        assert others == {"analytic", "event", "cycle"}
        for check in report.checks[1:]:
            assert check.total_cycles == pytest.approx(
                check.ratio * first.total_cycles
            )

    def test_tier_evidence_lands_in_notes(self, report):
        by_name = {check.backend: check for check in report.checks}
        assert any("MACs" in note for note in by_name["cycle"].notes)
        assert any("events" in note for note in by_name["event"].notes)

    def test_envelopes_are_the_documented_defaults(self, report):
        for check in report.checks[1:]:
            assert (check.lo, check.hi) == DEFAULT_ENVELOPE[check.backend]


class TestSelection:
    def test_backend_subset(self):
        report = cross_check(small_cnn_spec(), backends=["streaming", "analytic"])
        assert [check.backend for check in report.checks] == [
            "streaming", "analytic",
        ]

    def test_reference_inserted_when_omitted(self):
        report = cross_check(small_cnn_spec(), backends=["analytic"])
        assert report.checks[0].backend == "streaming"

    def test_strategy_is_recorded(self):
        report = cross_check(small_cnn_spec(), strategy="greedy")
        assert report.strategy == "greedy"
        assert report.ok


class TestViolations:
    def test_tight_envelope_fails_and_names_the_tier(self):
        # The analytic tier is a strict upper bound on pipelined
        # multi-layer segments, so a 0.1% envelope cannot hold.
        report = cross_check(
            small_cnn_spec(),
            backends=["streaming", "analytic"],
            envelope={"analytic": (0.999, 1.001)},
        )
        assert not report.ok
        assert [check.backend for check in report.checks if not check.ok] == ["analytic"]


class TestSerialization:
    def test_as_dict_is_byte_stable(self, report):
        again = cross_check(small_cnn_spec())
        dump = lambda r: json.dumps(r.as_dict(), sort_keys=True)  # noqa: E731
        assert dump(report) == dump(again)

    def test_keeps_each_tiers_run_outside_as_dict(self, report):
        # The dashboard reuses these runs instead of simulating again:
        # each is the run simulate() gives on its own.
        assert sorted(report.reports) == ["analytic", "cycle", "event", "streaming"]
        for backend, run in report.reports.items():
            alone = simulate(small_cnn_spec(), backend=backend)
            assert run.as_dict() == alone.as_dict(), backend
        assert "reports" not in report.as_dict()

    def test_as_dict_carries_the_verdict(self, report):
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["reference"] == "streaming"
        assert {c["backend"] for c in payload["checks"]} == {
            "streaming", "analytic", "event", "cycle",
        }
        for check in payload["checks"]:
            assert check["envelope"][0] <= check["ratio"] <= check["envelope"][1]
