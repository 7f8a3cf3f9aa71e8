"""Shipped fleet scenarios: builders, chip floors, and request sizing."""

import pytest

from repro.errors import SimulationError
from repro.fleet import FLEET_SCENARIOS, build_scenario
from repro.fleet.simulator import OpenLoopTraffic, UserGroupTraffic


def expected_requests(scenario):
    """Back-of-envelope request count of a scenario: each model's mean
    offered rate over the window, at the mean of its diurnal shape."""
    total = 0.0
    for model in scenario.models:
        if isinstance(model.traffic, OpenLoopTraffic):
            mean = 1.0
            if model.traffic.shape is not None:
                floor = model.traffic.shape.floor
                mean = floor + (1.0 - floor) * 0.5
            total += (
                model.traffic.rate_hz * mean * scenario.duration_ms / 1000.0
            )
        elif isinstance(model.traffic, UserGroupTraffic):
            mean = 1.0
            if model.traffic.shape is not None:
                floor = model.traffic.shape.floor
                mean = floor + (1.0 - floor) * 0.5
            cycle = model.traffic.think_ms / mean + model.profile.service_ms
            total += model.traffic.users * scenario.duration_ms / cycle
    return total


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

    @pytest.mark.parametrize("chips", [2, 3])
    def test_fleet_smoke_refuses_chips_its_replicas_do_not_fit(self, chips):
        # Seven replicas, at most one of a model per chip, need four.
        with pytest.raises(SimulationError, match="fleet-smoke needs >= 4 chips"):
            build_scenario("fleet-smoke", chips=chips)

    def test_fleet_smoke_places_on_its_floor(self):
        scenario = build_scenario("fleet-smoke", chips=4)
        result = scenario.simulator(seed=0).run(20.0)
        assert result.conserved

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
