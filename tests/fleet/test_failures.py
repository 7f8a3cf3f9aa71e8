"""Failure injection end to end: crashes account everything, reruns pin.

The chip-crash invariants the fleet layer guarantees:

* a crash mid-window re-places the chip's replicas onto survivors;
* nothing is silently dropped — every generated request lands in
  exactly one of completed / overrun / shed / failed / router-shed;
* the same seed replays the same failure byte-for-byte.
"""

import pytest

from repro.errors import SimulationError
from repro.fleet import (
    ChipCrash,
    ChipDegradation,
    FailureScenario,
    build_scenario,
)
from repro.fleet.failures import step_factor


class TestFailureDeclarations:
    def test_crash_must_be_positive_time(self):
        with pytest.raises(SimulationError):
            ChipCrash(chip=0, at_ms=0.0)

    def test_duplicate_crash_rejected(self):
        scenario = FailureScenario(
            crashes=[ChipCrash(0, 10.0), ChipCrash(0, 20.0)]
        )
        with pytest.raises(SimulationError, match="more than once"):
            scenario.validate(n_chips=4)

    def test_out_of_fleet_chip_rejected(self):
        with pytest.raises(SimulationError, match="outside fleet"):
            FailureScenario(crashes=[ChipCrash(9, 10.0)]).validate(n_chips=4)

    def test_degradation_steps_apply_in_time_order(self):
        scenario = FailureScenario(
            degradations=[
                ChipDegradation(chip=0, from_ms=100.0, factor=4.0),
                ChipDegradation(chip=0, from_ms=10.0, factor=2.0),
            ]
        )
        steps = scenario.degradation_schedule(0)
        assert step_factor(steps, 5.0) == 1.0
        assert step_factor(steps, 50.0) == 2.0
        assert step_factor(steps, 150.0) == 4.0
        assert step_factor(scenario.degradation_schedule(1), 150.0) == 1.0


@pytest.fixture(scope="module")
def crash_result():
    scenario = build_scenario("chip-crash")
    return scenario.simulator(seed=11).run(scenario.duration_ms)


class TestCrashMidWindow:
    def test_replicas_re_place_onto_survivors(self, crash_result):
        assert crash_result.recoveries
        for event in crash_result.recoveries:
            assert event.from_chip == 0
            assert event.to_chip not in (None, 0)
        # The crashed chip's replicas are gone from the final placement.
        placement = crash_result.placement
        assert all(r["chip"] != 0 for r in placement["replicas"])

    def test_no_silent_drops(self, crash_result):
        assert crash_result.conserved
        for rollup in crash_result.models.values():
            assert rollup.generated == (
                rollup.completed + rollup.overrun + rollup.shed
                + rollup.failed + rollup.router_shed
            )
        # The crash is visible: the halted chip failed queued/in-flight
        # work instead of dropping it.
        assert crash_result.total_failed > 0

    def test_only_the_crashed_chip_fails_requests(self, crash_result):
        halted = crash_result.chip_results[0]
        assert halted is not None
        halted_failed = sum(r.failed for r in halted.reports.values())
        assert halted_failed == crash_result.total_failed > 0
        for chip, result in crash_result.chip_results.items():
            if chip == 0 or result is None:
                continue
            assert all(r.failed == 0 for r in result.reports.values())

    def test_slo_burn_is_bounded(self, crash_result):
        # Survivors absorb the traffic: the fleet still completes the
        # overwhelming majority of requests and p99 stays finite.
        completed = crash_result.total_completed
        generated = crash_result.total_generated
        assert completed / generated > 0.95
        assert 0.0 < crash_result.worst_model_p99_ms < 50.0

    def test_same_seed_rerun_is_byte_identical(self, crash_result):
        scenario = build_scenario("chip-crash")
        rerun = scenario.simulator(seed=11).run(scenario.duration_ms)
        assert rerun.to_json() == crash_result.to_json()


class TestDegradedChipEndToEnd:
    def test_load_aware_balancer_starves_the_slow_chip(self):
        scenario = build_scenario("mixed-rate-fleet")

        def run(balancer):
            return scenario.simulator(balancer=balancer, seed=5).run(500.0)

        blind = run("round-robin")
        aware = run("least-loaded")
        assert blind.conserved and aware.conserved
        # The degraded chip (0) receives materially less work under the
        # load-aware policy, and the worst model's p99 improves.
        assert aware.routed[0] < blind.routed[0]
        assert aware.worst_model_p99_ms < blind.worst_model_p99_ms
