"""The sweep engine: statuses, serial==parallel, and the baselines."""

import pytest

from repro.dse.engine import (
    evaluate_point,
    network_baselines,
    run_sweep,
)
from repro.dse.presets import SWEEPS
from repro.dse.spec import DesignPoint, SweepSpec


@pytest.fixture(scope="module")
def smoke():
    return run_sweep(SWEEPS["smoke"])


class TestEvaluatePoint:
    def test_default_point_simulates_ok(self):
        point = DesignPoint(network="small_cnn", backend="analytic")
        result = evaluate_point(point)
        assert result.ok
        assert result.latency_ms > 0
        assert set(result.energy_j) == {"dram", "cmem", "noc", "core", "llc"}
        assert set(result.area_mm2) == {
            "cmem", "core", "local_mem", "noc", "llc"
        }
        assert result.report is None  # keep_report defaults off

    def test_keep_report_attaches_the_run(self):
        point = DesignPoint(network="small_cnn", backend="analytic")
        result = evaluate_point(point, keep_report=True)
        assert result.report is not None
        assert result.report.latency_ms == result.latency_ms

    def test_too_small_machine_is_infeasible_not_fatal(self):
        point = DesignPoint(network="resnet18", backend="analytic",
                            mesh=(3, 4))
        result = evaluate_point(point)
        assert result.status in ("infeasible", "rejected")
        assert not result.ok
        assert result.detail

    def test_starved_dram_is_rejected_with_rule_ids(self):
        # One DRAM channel cannot feed ResNet18's filter streaming; the
        # static verifier (not the backend) should catch it.
        point = DesignPoint(network="resnet18", backend="analytic",
                            dram_channels=1)
        result = evaluate_point(point)
        if result.status == "rejected":
            assert result.findings  # rule ids travel with the row
        else:
            assert result.status in ("ok", "infeasible")


class TestRunSweep:
    def test_smoke_sweep_all_ok(self, smoke):
        assert len(smoke.points) == SWEEPS["smoke"].size
        assert all(r.ok for r in smoke.points)

    def test_points_keep_expansion_order(self, smoke):
        expanded = [p.point_id for p in SWEEPS["smoke"].expand()]
        assert [r.point.point_id for r in smoke.points] == expanded

    def test_serial_and_parallel_are_byte_identical(self, smoke):
        parallel = run_sweep(SWEEPS["smoke"], workers=4)
        assert parallel.to_json() == smoke.to_json()

    def test_baselines_cover_the_sweep_networks(self, smoke):
        assert set(smoke.baselines) == set(SWEEPS["smoke"].networks)
        for values in smoke.baselines.values():
            assert values["scalar_cycles"] > values["neural_cache_cycles"]
            assert values["total_macs"] > 0

    def test_baselines_can_be_skipped(self):
        spec = SweepSpec(name="t", networks=("small_cnn",),
                         backends=("analytic",))
        result = run_sweep(spec, baselines=False)
        assert result.baselines == {}


class TestNetworkBaselines:
    def test_sorted_and_deduplicated(self):
        out = network_baselines(["small_cnn", "small_cnn"])
        assert list(out) == ["small_cnn"]
