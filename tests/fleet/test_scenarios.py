"""Shipped fleet scenarios: builders, chip floors, and request sizing."""

import pytest

from repro.errors import SimulationError
from repro.fleet import (
    FLEET_SCENARIOS,
    build_scenario,
    expected_requests,
)


class TestBuildScenario:
    def test_every_shipped_scenario_builds_at_its_default(self):
        for name in FLEET_SCENARIOS:
            scenario = build_scenario(name)
            assert scenario.name == name
            assert scenario.models
            assert scenario.duration_ms > 0.0
            scenario.failures.validate(scenario.n_chips)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(SimulationError, match="unknown fleet scenario"):
            build_scenario("warp-speed")

    def test_chip_floor_enforced(self):
        with pytest.raises(SimulationError, match="chip-crash needs >= 4"):
            build_scenario("chip-crash", chips=2)

    def test_chips_override_scales_the_fleet(self):
        small = build_scenario("diurnal-million", chips=2)
        large = build_scenario("diurnal-million", chips=16)
        assert small.n_chips == 2 and large.n_chips == 16
        assert expected_requests(large) > expected_requests(small)


class TestExpectedRequests:
    def test_diurnal_million_sizes_past_the_acceptance_floor(self):
        scenario = build_scenario("diurnal-million")
        assert expected_requests(scenario) >= 1_000_000

    def test_smoke_stays_small(self):
        assert expected_requests(build_scenario("fleet-smoke")) < 100_000
