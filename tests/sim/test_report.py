"""RunReport/SegmentReport: schema, derivations, determinism."""

import json

import pytest

from repro.errors import MappingError
from repro.nn.workloads import small_cnn_spec
from repro.sim import SegmentReport, simulate


@pytest.fixture(scope="module")
def report():
    return simulate(small_cnn_spec())


class TestAliases:
    def test_every_run_is_a_segment_report(self, report):
        assert report.runs
        assert all(isinstance(run, SegmentReport) for run in report.runs)


class TestDerivations:
    def test_segment_cycles_sum_the_three_charges(self, report):
        for run in report.runs:
            assert run.cycles == (
                run.compute_cycles + run.filter_load_cycles + run.staging_cycles
            )

    def test_latency_follows_total_cycles(self, report):
        expected = report.total_cycles * report.constants.cycle_seconds * 1e3
        assert report.latency_ms == expected

    def test_throughput_is_batch_over_latency(self, report):
        assert report.throughput_samples_s == pytest.approx(
            report.batch * 1000.0 / report.latency_ms
        )

    def test_power_is_energy_over_time(self, report):
        seconds = report.total_cycles * report.constants.cycle_seconds
        assert report.average_power_w == pytest.approx(
            report.energy.total / seconds
        )

    def test_layer_reports_cover_the_segment(self, report):
        for run in report.runs:
            indices = [layer.index for layer in run.layers]
            assert indices == [spec.index for spec in run.segment.layers]

    def test_missing_layer_raises(self, report):
        with pytest.raises(MappingError):
            report.plan.segment_of(10**6)
        with pytest.raises(MappingError):
            report.nodes_of(10**6)


class TestAsDict:
    def test_summary_names_the_backend(self, report):
        payload = report.as_dict()
        assert payload["backend"] == "streaming"
        assert payload["total_cycles"] == report.total_cycles
        assert len(payload["segments"]) == len(report.runs)

    def test_serialization_is_byte_stable(self, report):
        again = simulate(small_cnn_spec())
        dump = lambda r: json.dumps(r.as_dict(), sort_keys=True)  # noqa: E731
        assert dump(report) == dump(again)

    def test_tier_evidence_only_on_tiers_that_produce_it(self, report):
        # Streaming segments carry no cycle-tier numerics fields.
        for seg in report.as_dict()["segments"]:
            assert "functional_macs" not in seg
            assert "numerics_verified" not in seg
        cycle = simulate(small_cnn_spec(), backend="cycle")
        for seg in cycle.as_dict()["segments"]:
            assert seg["numerics_verified"] is True
            assert seg["functional_macs"] > 0
