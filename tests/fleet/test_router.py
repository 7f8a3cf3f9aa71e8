"""Router sweep: tracing, shedding, crash re-placement, autoscale epochs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.fleet.autoscale import AutoscaleConfig, ReplicaAutoscaler
from repro.fleet.balancing import FluidLoadTracker, make_balancer
from repro.fleet.failures import ChipCrash, ChipDegradation, FailureScenario
from repro.fleet.placement import place_replicas
from repro.fleet.profiles import ModelProfile
from repro.fleet.router import ClusterRouter, RoutingResult, split_user_groups

PROFILES = {
    "vision": ModelProfile("vision", 0.8, cores=64, restage_ms=4.0),
    "speech": ModelProfile("speech", 1.1, cores=96, restage_ms=6.0),
}


def build_router(n_chips=4, balancer="least-loaded", failures=None,
                 autoscaler=None, replicas=None):
    placement = place_replicas(
        PROFILES, replicas or {"vision": 3, "speech": 2},
        n_chips=n_chips, array_size=210,
    )
    tracker = FluidLoadTracker()
    return ClusterRouter(
        placement,
        PROFILES,
        make_balancer(balancer, tracker, seed=0),
        tracker,
        deadlines_ms={"vision": 10.0, "speech": 15.0},
        failures=failures,
        autoscaler=autoscaler,
    )


class TestRouteAll:
    def test_every_arrival_lands_in_exactly_one_trace(self):
        router = build_router()
        streams = {
            "vision": [float(i) for i in range(100)],
            "speech": [0.5 + float(i) for i in range(50)],
        }
        result = router.route_all(streams, duration_ms=200.0)
        traced = sum(len(ts) for ts in result.traces.values())
        shed = sum(result.router_shed.values())
        assert traced + shed == 150
        assert shed == 0
        assert sum(result.routed.values()) == 150
        for (chip, model), times in result.traces.items():
            assert times == sorted(times)
            assert chip in router.placement.chips_of(model)

    def test_no_live_replica_sheds_visibly(self):
        router = build_router(
            failures=FailureScenario(crashes=[
                ChipCrash(chip=c, at_ms=10.0) for c in range(4)
            ]),
        )
        streams = {"vision": [5.0, 20.0, 30.0]}
        result = router.route_all(streams, duration_ms=100.0)
        assert result.router_shed["vision"] == 2
        assert sum(len(t) for t in result.traces.values()) == 1

    def test_deterministic_across_reruns(self):
        streams = {"vision": [float(i) * 0.7 for i in range(200)]}
        a = build_router(balancer="p2c").route_all(dict(streams), 200.0)
        b = build_router(balancer="p2c").route_all(dict(streams), 200.0)
        assert a.traces == b.traces
        assert a.routed == b.routed


class TestCrashHandling:
    def test_crash_replaces_replicas_on_survivors(self):
        router = build_router(
            failures=FailureScenario(crashes=[ChipCrash(chip=0, at_ms=50.0)])
        )
        hosted = {a.model for a in router.placement.on_chip(0)}
        assert hosted  # chip 0 hosts something under FFD
        result = router.route_all(
            {"vision": [40.0, 60.0], "speech": [45.0, 65.0]}, 200.0
        )
        assert {e.model for e in result.recoveries} == hosted
        for event in result.recoveries:
            assert event.from_chip == 0
            assert event.to_chip not in (None, 0)
            assert event.ready_ms == pytest.approx(
                50.0 + PROFILES[event.model].restage_ms
            )
            assert event.to_chip in router.placement.chips_of(event.model)
        assert router.placement.on_chip(0) == []

    def test_replica_not_routable_until_restaged(self):
        router = build_router(
            failures=FailureScenario(crashes=[ChipCrash(chip=0, at_ms=50.0)])
        )
        result = router.route_all({"vision": [40.0]}, 200.0)
        # The recovery replica exists but is still staging at t=51.
        recovered = next(e for e in result.recoveries if e.model == "vision")
        live = router.live_candidates("vision", 51.0)
        assert recovered.to_chip not in live
        assert recovered.to_chip in router.live_candidates(
            "vision", recovered.ready_ms
        )
        del result

    def test_degradation_inflates_the_fluid_bill(self):
        scenario = FailureScenario(
            degradations=[ChipDegradation(chip=0, from_ms=0.0, factor=3.0)]
        )
        router = build_router(failures=scenario, balancer="round-robin")
        router.route_all({"vision": [0.0]}, 10.0)
        # round-robin sends the first vision arrival to its first
        # candidate chip (chip 0); the tracker bills service * factor.
        service = PROFILES["vision"].service_ms
        assert router.tracker.load_ms(0, 0.0) == pytest.approx(3.0 * service)


# Replica moves and time advances: add/remove (model, chip), crash chip,
# or advance the clock by half-ms steps (restaging takes 4 or 6 ms, so
# the clock lands on ready times exactly as well as between them).
_MODELS = sorted(PROFILES)
_CHIPS = st.integers(min_value=0, max_value=3)
_ROUTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(_MODELS), _CHIPS),
        st.tuples(st.just("remove"), st.sampled_from(_MODELS), _CHIPS),
        st.tuples(st.just("crash"), _CHIPS),
        st.tuples(
            st.just("advance"),
            st.integers(min_value=0, max_value=14).map(lambda k: k / 2),
        ),
    ),
    max_size=30,
)


class TestCandidateCache:
    @staticmethod
    def fresh_scan(router, model, now):
        return [
            chip
            for chip in router.placement.chips_of(model)
            if chip not in router._crashed
            and router._ready_ms.get((model, chip), 0.0) <= now
        ]

    @settings(max_examples=150, deadline=None)
    @given(ops=_ROUTER_OPS)
    def test_cached_candidates_equal_a_fresh_scan(self, ops):
        router = build_router()
        result = RoutingResult()
        now = 0.0

        def check():
            for model in _MODELS:
                fresh = self.fresh_scan(router, model, now)
                for _ in range(2):  # a fill, then a cache hit
                    assert list(router.live_candidates(model, now)) == fresh

        check()
        for op in ops:
            if op[0] == "add":
                _, model, chip = op
                if (
                    chip not in router._crashed
                    and chip not in router.placement.chips_of(model)
                    and router.placement.free_cores(chip)
                    >= PROFILES[model].cores
                ):
                    router.add_replica(model, chip, now)
            elif op[0] == "remove":
                _, model, chip = op
                if chip in router.placement.chips_of(model):
                    router.remove_replica(model, chip, now)
            elif op[0] == "crash":
                if op[1] not in router._crashed:
                    router.crash_chip(op[1], now, result)
            else:
                now += op[1]
            check()


class TestAutoscaleEpochs:
    def test_overload_scales_up_and_idle_scales_down(self):
        config = AutoscaleConfig(
            epoch_ms=10.0, high_utilization=0.6, low_utilization=0.3,
            down_epochs=2, cooldown_epochs=1, max_replicas=4,
        )
        router = build_router(
            replicas={"vision": 1, "speech": 1},
            autoscaler=ReplicaAutoscaler(config),
        )
        # Dense vision burst for 50 ms, then silence.
        burst = [i * 0.05 for i in range(1000)]
        result = router.route_all({"vision": burst}, duration_ms=200.0)
        ups = [e for e in result.scale_events if e.direction == "up"]
        downs = [e for e in result.scale_events if e.direction == "down"]
        assert ups and downs
        assert all(e.model == "vision" for e in ups)
        # Down-scaling never goes below one replica.
        assert router.placement.replica_count("vision") >= 1


class TestSplitUserGroups:
    def test_even_split_with_remainder_to_low_chips(self):
        placement = place_replicas(
            PROFILES, {"vision": 3}, n_chips=4, array_size=210
        )
        chips = placement.chips_of("vision")
        split = split_user_groups(placement, "vision", 10)
        assert sum(split.values()) == 10
        assert split[chips[0]] == 4 and split[chips[1]] == 3

    def test_no_replicas_raises(self):
        placement = place_replicas(
            PROFILES, {"vision": 1}, n_chips=2, array_size=210
        )
        with pytest.raises(SimulationError, match="no replicas"):
            split_user_groups(placement, "speech", 5)
