"""The NOC7xx route checker and its dynamic event-kernel twin.

The load-bearing fixture is the classical 4-flow turn cycle on a 2x2
block: the static checker must report exactly one NOC701 cycle with the
offending links named, and the hold-and-wait replay on the event kernel
must actually stall on the same route set — the checker and the
simulator agree about what a deadlock is.
"""

from repro.analysis import (
    RouteFlow,
    analyze_plan,
    check_routes as check_on,
    plan_route_flows,
    replay_routes as replay_on,
)
from repro.core.chip import ChipConfig
from repro.mapping.tiling import tile_network
from repro.nn.workloads import resnet18_spec, small_cnn_spec
from repro.sim.accounting import plan_network
from repro.sim.config import SimConfig

#: The paper's 16x16 chip, the mesh these route sets are drawn on.
CHIP = ChipConfig()


def check_routes(flows):
    return check_on(flows, CHIP)


def replay_routes(flows):
    return replay_on(flows, CHIP)


def rules_of(report):
    return {d.rule for d in report.diagnostics}


def turn_cycle_flows():
    """Four flows whose first link is the next flow's second link."""
    return [
        RouteFlow("east", (0, 0), (1, 1), path=((0, 0), (1, 0), (1, 1))),
        RouteFlow("south", (1, 0), (0, 1), path=((1, 0), (1, 1), (0, 1))),
        RouteFlow("west", (1, 1), (0, 0), path=((1, 1), (0, 1), (0, 0))),
        RouteFlow("north", (0, 1), (1, 0), path=((0, 1), (0, 0), (1, 0))),
    ]


class TestDeadlockCycle:
    def test_turn_cycle_reports_exactly_one_noc701(self):
        report = check_routes(turn_cycle_flows())
        cycles = [d for d in report.diagnostics if d.rule == "NOC701"]
        assert len(cycles) == 1
        assert not report.ok

    def test_cycle_diagnostic_names_all_four_links(self):
        report = check_routes(turn_cycle_flows())
        message = [d for d in report.diagnostics if d.rule == "NOC701"][0].message
        for link in (
            "(0, 0)->(1, 0)", "(1, 0)->(1, 1)",
            "(1, 1)->(0, 1)", "(0, 1)->(0, 0)",
        ):
            assert link in message
        for flow in ("east", "south", "west", "north"):
            assert flow in message

    def test_xy_routes_never_cycle(self):
        # X-Y dimension order forbids Y-then-X turns, so any all-to-all
        # XY route set is cycle-free by construction.
        flows = [
            RouteFlow(f"xy{i}", (i, 1), (7 - i, 6)) for i in range(8)
        ] + [
            RouteFlow(f"yx{i}", (7 - i, 6), (i, 1)) for i in range(8)
        ]
        report = check_routes(flows)
        assert "NOC701" not in rules_of(report)

    def test_breaking_one_flow_breaks_the_cycle(self):
        flows = turn_cycle_flows()[:3]
        report = check_routes(flows)
        assert "NOC701" not in rules_of(report)


class TestReplayAgreement:
    """The event-kernel replay must agree with the static verdict."""

    def test_turn_cycle_stalls_the_event_tier(self):
        replay = replay_routes(turn_cycle_flows())
        assert replay.deadlocked
        assert sorted(replay.stalled) == ["east", "north", "south", "west"]
        assert replay.completed == []

    def test_acyclic_set_drains(self):
        replay = replay_routes(turn_cycle_flows()[:3])
        assert not replay.deadlocked
        assert len(replay.completed) == 3

    def test_xy_flows_drain(self):
        flows = [RouteFlow(f"f{i}", (i, 1), (i, 5)) for i in range(4)]
        replay = replay_routes(flows)
        assert not replay.deadlocked


class TestHotLinks:
    def test_saturated_link_warns_noc702(self):
        flows = [
            RouteFlow("a", (0, 1), (4, 1), rate=0.7),
            RouteFlow("b", (1, 1), (4, 1), rate=0.7),
        ]
        report = check_routes(flows)
        hot = [d for d in report.diagnostics if d.rule == "NOC702"]
        assert hot and report.ok  # warning, not error
        assert "a" in hot[0].message and "b" in hot[0].message

    def test_underloaded_link_is_quiet(self):
        flows = [
            RouteFlow("a", (0, 1), (4, 1), rate=0.3),
            RouteFlow("b", (1, 1), (4, 1), rate=0.3),
        ]
        assert "NOC702" not in rules_of(check_routes(flows))


class TestMalformedRoutes:
    def test_off_mesh_endpoint(self):
        report = check_routes([RouteFlow("off", (0, 0), (99, 0))])
        assert "NOC703" in rules_of(report)

    def test_self_loop(self):
        report = check_routes([RouteFlow("loop", (3, 3), (3, 3))])
        assert "NOC703" in rules_of(report)

    def test_discontinuous_path(self):
        flow = RouteFlow("jump", (0, 0), (2, 0), path=((0, 0), (2, 0)))
        assert "NOC703" in rules_of(check_routes([flow]))

    def test_link_reacquisition_is_self_deadlock(self):
        flow = RouteFlow(
            "pingpong", (0, 0), (1, 0),
            path=((0, 0), (1, 0), (0, 0), (1, 0)),
        )
        report = check_routes([flow])
        assert "NOC703" in rules_of(report)
        reacquire = [d for d in report.diagnostics if d.rule == "NOC703"]
        assert "re-acquires" in reacquire[0].message


class TestPlanRoutes:
    def test_small_cnn_routes_lint_clean_and_drain(self):
        config = SimConfig()
        plan = plan_network(small_cnn_spec(), "heuristic", config)
        flows = plan_route_flows(plan, config.chip)
        assert flows
        report = check_routes(flows)
        assert report.clean, report.render()
        assert not replay_routes(flows).deadlocked

    def test_region_offset_shifts_routes(self):
        config = SimConfig()
        plan = plan_network(small_cnn_spec(), "heuristic", config)
        base = {f.src for f in plan_route_flows(plan, config.chip)}
        shifted = {
            f.src for f in plan_route_flows(plan, config.chip, start_offset=50)
        }
        assert base != shifted


class TestChipMesh:
    """The checker and the placements take the mesh of the chip given."""

    MESH_12 = SimConfig(chip=ChipConfig(mesh_width=12, mesh_height=12))

    def test_plan_routes_stay_in_the_compute_region(self):
        config = self.MESH_12
        network = tile_network(resnet18_spec(), config.capacity, config.array_size)
        plan = plan_network(network, "heuristic", config)
        flows = plan_route_flows(plan, config.chip)
        assert flows
        # 11 x 10 compute tiles from (0, 1): the host column and the two
        # LLC rows of the 12x12 floorplan stay free.
        for flow in flows:
            for x, y in (flow.src, flow.dst):
                assert 0 <= x < 11 and 1 <= y < 11, flow

    def test_route_leaving_the_mesh_is_noc703(self):
        flow = RouteFlow("wide", (10, 1), (14, 1))
        report = analyze_plan(
            config=self.MESH_12, routes=[flow], families=("noc",)
        )
        assert "NOC703" in rules_of(report)
        assert "12x12 mesh" in report.diagnostics[0].message
        # The same route fits the paper's 16x16 mesh.
        assert check_routes([flow]).clean
