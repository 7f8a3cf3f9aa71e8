"""End-to-end fleet runs: conservation, parallel identity, autoscaling."""

import hashlib
import json

import pytest

from repro.errors import SimulationError
from repro.fleet import FleetSimulator, build_scenario
from repro.fleet.scenarios import diurnal_million
from repro.telemetry import MetricsRegistry


def run_scenario(name, *, seed=3, workers=0, collect_metrics=False,
                 duration_ms=None, balancer=None):
    scenario = build_scenario(name)
    sim = scenario.simulator(
        balancer=balancer,
        seed=seed,
        workers=workers,
        collect_metrics=collect_metrics,
    )
    return sim.run(duration_ms or scenario.duration_ms)


class TestValidation:
    @pytest.mark.parametrize("batch_requests", [2.5, 0])
    def test_batch_requests_must_be_a_positive_integer(self, batch_requests):
        scenario = build_scenario("fleet-smoke")
        with pytest.raises(SimulationError, match="batch_requests"):
            FleetSimulator(
                scenario.models, scenario.n_chips, batch_requests=batch_requests
            )


class TestFleetSmoke:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("fleet-smoke")

    def test_clean_run_conserves_with_zero_losses(self, result):
        assert result.conserved
        assert result.total_generated > 0
        assert result.total_shed == 0
        assert result.total_failed == 0
        assert result.total_router_shed == 0

    def test_every_chip_hosted_work_and_reported(self, result):
        assert set(result.chip_results) == set(range(result.n_chips))
        assert all(r is not None for r in result.chip_results.values())
        utilization = result.chip_utilization()
        assert set(utilization) == set(range(result.n_chips))
        assert all(u >= 0.0 for u in utilization.values())

    def test_fleet_percentiles_are_monotone(self, result):
        p50 = result.fleet_percentile(50.0)
        p95 = result.fleet_percentile(95.0)
        p99 = result.fleet_percentile(99.0)
        assert 0.0 < p50 <= p95 <= p99
        assert result.worst_model_p99_ms >= p50


class TestParallelIdentity:
    @pytest.mark.parametrize(
        "name, duration_ms",
        [
            ("fleet-smoke", None),
            # A degraded chip: its steps travel inside the ReplicaPolicy.
            ("mixed-rate-fleet", 500.0),
            # Closed-loop users: UserGroupArrivals travel in the TenantSpecs.
            ("diurnal-million", 300.0),
        ],
        ids=["fleet-smoke", "mixed-rate-fleet", "diurnal-million"],
    )
    def test_workers_do_not_change_a_single_byte(self, name, duration_ms):
        serial = run_scenario(name, seed=21, duration_ms=duration_ms)
        parallel = run_scenario(
            name, seed=21, duration_ms=duration_ms, workers=2
        )
        assert parallel.to_json() == serial.to_json()

    def test_parallel_identity_survives_failures_and_autoscale(self):
        serial = run_scenario("autoscale-burst", seed=8)
        parallel = run_scenario("autoscale-burst", seed=8, workers=3)
        assert parallel.to_json() == serial.to_json()


class TestAutoscaleBurst:
    def test_burst_triggers_up_scaling(self):
        result = run_scenario("autoscale-burst")
        assert result.conserved
        ups = [e for e in result.scale_events if e.direction == "up"]
        assert ups
        # Scale events land on epoch boundaries and carry utilization.
        for event in result.scale_events:
            assert event.time_ms > 0.0
            assert event.utilization >= 0.0


class TestCollectedMetrics:
    def test_merged_registry_covers_the_fleet(self):
        result = run_scenario("fleet-smoke", collect_metrics=True)
        assert isinstance(result.metrics, MetricsRegistry)
        assert result.metrics.counters
        # The registry stays out of the deterministic JSON export.
        assert "metrics" not in result.as_dict()

    def test_metrics_off_by_default(self):
        assert run_scenario("fleet-smoke").metrics is None

    @pytest.mark.parametrize(
        "name, duration_ms",
        [("fleet-smoke", None), ("chip-crash", None), ("mixed-rate-fleet", 500.0)],
    )
    def test_collecting_metrics_leaves_the_result_unchanged(self, name, duration_ms):
        """The chips' telemetry-on path bills exactly what the lean path does.

        chip-crash runs past its crash, so the halted branches count too.
        """
        docs = []
        for collect in (False, True):
            doc = json.loads(
                run_scenario(name, duration_ms=duration_ms, collect_metrics=collect)
                .to_json()
            )
            doc.pop("metrics", None)
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


class TestBalancerSeparation:
    def test_load_aware_beats_round_robin_on_worst_tenant_p99(self):
        aware = run_scenario("mixed-rate-fleet", duration_ms=500.0)
        blind = run_scenario(
            "mixed-rate-fleet", duration_ms=500.0, balancer="round-robin"
        )
        assert aware.conserved and blind.conserved
        assert aware.worst_model_p99_ms < blind.worst_model_p99_ms


class TestDiurnalPin:
    def test_sixteen_chip_rep_bytes_are_pinned(self):
        """The seed-0 rep of the ``fleet-diurnal`` benchmark: 16 chips,
        the first 2.25 s of the diurnal day, about 100k requests through
        the router and the chip loops."""
        scenario = diurnal_million(16)
        result = FleetSimulator(
            scenario.models, scenario.n_chips, seed=0
        ).run(2250.0)
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest == (
            "e84492b1c2064aa224d507f545b87f05a9bf654202b125c0aee13a42f54f37b3"
        )
