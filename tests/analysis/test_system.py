"""``analyze_plan()``: the plan and noc families over one co-resident set."""

import pytest

from repro.analysis import ResidentPlan, analyze_plan, plan_route_flows
from repro.errors import PlacementError
from repro.nn.workloads import small_cnn_spec
from repro.sim.accounting import plan_network
from repro.sim.config import SimConfig


class TestRegionOverflow:
    def test_resident_past_the_snake_region_is_plan602_and_unrouted(self):
        config = SimConfig()
        plan = plan_network(small_cnn_spec(), "heuristic", config)
        inside = ResidentPlan("inside", plan)
        past_start = config.chip.compute_tiles - inside.footprint + 1
        past = ResidentPlan("past", plan, region_start=past_start)
        with pytest.raises(PlacementError):
            plan_route_flows(plan, config.chip, start_offset=past_start)

        report = analyze_plan(config=config, co_resident=[inside, past])
        assert [d.opcode for d in report.diagnostics if d.rule == "PLAN602"] == ["past"]

        # The noc family routes the resident that fits and skips the one
        # that overflows, rather than raising.
        noc = analyze_plan(
            config=config, co_resident=[inside, past], families=("noc",)
        )
        assert noc.program_length == len(plan_route_flows(plan, config.chip))
        assert noc.clean, noc.render()
