"""Serving policies against the real chip model."""

import hashlib
from dataclasses import replace

import pytest

from repro.core.multi_dnn import MultiDNNScheduler
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.serving.arrivals import PeriodicArrivals, PoissonArrivals
from repro.serving.policies import (
    ElasticPolicy,
    StaticPartitionPolicy,
    TenantObservation,
    TimeSharedPolicy,
)
from repro.serving.scenarios import mixed_rate_overloaded_tenants
from repro.serving.service import ServiceModel
from repro.serving.simulator import ServingSimulator
from repro.serving.tenancy import TenantSpec
from repro.sim import simulate


def net(name, m=32, h=14, layers=2):
    specs = tuple(
        ConvLayerSpec(i + 1, f"{name}{i}", h=h, w=h, c=64, m=m)
        for i in range(layers)
    )
    return NetworkSpec(name=name, layers=specs)


@pytest.fixture(scope="module")
def scheduler():
    return MultiDNNScheduler()


@pytest.fixture(scope="module")
def tenants():
    return [
        TenantSpec("heavy", net("heavy", m=64, h=28), PeriodicArrivals(5.0)),
        TenantSpec("light", small_cnn_spec(), PeriodicArrivals(1.0)),
    ]


class TestStatic:
    def test_matches_offline_multi_dnn_run(self, scheduler, tenants):
        policy = StaticPartitionPolicy(scheduler)
        policy.prepare(tenants)
        offline = scheduler.run([t.network for t in tenants])
        for tenant, run in zip(tenants, offline.runs):
            assert policy.service_ms(tenant.name) == run.latency_ms
            assert policy.shares()[tenant.name] == run.partition_cores
            assert policy.server_of(tenant.name) == tenant.name

    def test_batched_dispatch_simulates_each_point_once(self, monkeypatch):
        calls = []
        simulate_partition = MultiDNNScheduler.simulate_partition

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("batch_requests", 1))
            return simulate_partition(self, *args, **kwargs)

        monkeypatch.setattr(MultiDNNScheduler, "simulate_partition", counting)
        tenants = mixed_rate_overloaded_tenants()
        batch = 4
        simulator = ServingSimulator(
            StaticPartitionPolicy(MultiDNNScheduler()), batch_requests=batch
        )
        result = simulator.run(tenants, 500.0)
        assert max(calls) == batch  # batched dispatches really happened
        assert len(calls) <= len(tenants) * batch
        assert result.reports


class TestTimeShared:
    def test_whole_array_latency_one_server(self, scheduler, tenants):
        policy = TimeSharedPolicy(scheduler)
        policy.prepare(tenants)
        for tenant in tenants:
            expected = simulate(tenant.network).latency_ms
            assert policy.service_ms(tenant.name) == expected
            assert policy.server_of(tenant.name) == "chip"
        assert policy.shares() == {}

    def test_bills_the_scheduler_tier(self):
        tenants = mixed_rate_overloaded_tenants()
        policy = TimeSharedPolicy(MultiDNNScheduler(backend="analytic"))
        policy.prepare(tenants)
        for tenant in tenants:
            expected = simulate(tenant.network, backend="analytic").latency_ms
            assert policy.service_ms(tenant.name) == expected


class TestElastic:
    @pytest.fixture(scope="class")
    def policy(self, scheduler, tenants):
        policy = ElasticPolicy(
            ServiceModel(scheduler), control_interval_ms=10.0,
            hysteresis_cores=4,
        )
        policy.prepare(tenants)
        return policy

    def test_initial_shares_match_static_partition(self, policy, scheduler, tenants):
        shares = scheduler.partition([t.network for t in tenants])
        assert [policy.shares()[t.name] for t in tenants] == shares
        # ... and the initial service times match the static policy's.
        static = StaticPartitionPolicy(scheduler)
        static.prepare(tenants)
        for t in tenants:
            assert policy.service_ms(t.name) == static.service_ms(t.name)

    def test_idle_window_keeps_layout(self, policy):
        assert policy.on_interval(10.0, {}) is None
        assert (
            policy.on_interval(
                20.0, {"heavy": TenantObservation(), "light": TenantObservation()}
            )
            is None
        )

    def test_demand_shift_resizes_with_stall(self, scheduler, tenants):
        policy = ElasticPolicy(
            ServiceModel(scheduler), control_interval_ms=10.0,
            hysteresis_cores=4,
        )
        policy.prepare(tenants)
        before = policy.shares()
        light_service_before = policy.service_ms("light")
        # All the demand sits on the light tenant now.
        action = policy.on_interval(
            10.0,
            {
                "heavy": TenantObservation(arrivals=0, queue_depth=0),
                "light": TenantObservation(arrivals=50, queue_depth=9),
            },
        )
        assert action is not None
        assert action.shares["light"] > before["light"]
        assert action.shares["heavy"] < before["heavy"]
        assert sum(action.shares.values()) == scheduler.array_size
        # Both partitions moved, so both pay a re-staging stall.
        assert set(action.stall_ms) == {"heavy", "light"}
        assert all(s > 0 for s in action.stall_ms.values())
        # Every segment of each moved tenant's committed run is re-placed.
        networks = {t.name: t.network for t in tenants}
        assert action.placements_recomputed == sum(
            len(policy.service.partition_run(networks[name], action.shares[name]).runs)
            for name in action.stall_ms
        )
        # Service time of the grown tenant improved or held.
        assert policy.service_ms("light") <= light_service_before
        assert policy.resize_count == 1

    def test_hysteresis_blocks_small_wobble(self, scheduler, tenants):
        policy = ElasticPolicy(
            ServiceModel(scheduler), control_interval_ms=10.0,
            hysteresis_cores=10_000,
        )
        policy.prepare(tenants)
        action = policy.on_interval(
            10.0,
            {
                "heavy": TenantObservation(arrivals=1),
                "light": TenantObservation(arrivals=50, queue_depth=9),
            },
        )
        assert action is None

    def test_cooldown_blocks_back_to_back_resizes(self, scheduler, tenants):
        policy = ElasticPolicy(
            ServiceModel(scheduler), control_interval_ms=10.0,
            hysteresis_cores=4, cooldown_ms=100.0,
        )
        policy.prepare(tenants)
        shift = {
            "heavy": TenantObservation(arrivals=0),
            "light": TenantObservation(arrivals=50, queue_depth=9),
        }
        assert policy.on_interval(10.0, shift) is not None
        back = {
            "heavy": TenantObservation(arrivals=50, queue_depth=9),
            "light": TenantObservation(arrivals=0),
        }
        assert policy.on_interval(20.0, back) is None  # inside cooldown
        assert policy.on_interval(110.0, back) is not None

    def test_validates_knobs(self):
        with pytest.raises(SimulationError):
            ElasticPolicy(control_interval_ms=0.0)
        with pytest.raises(SimulationError):
            ElasticPolicy(hysteresis_cores=0)
        with pytest.raises(SimulationError):
            ElasticPolicy().prepare([])


class TestElasticPin:
    def test_overloaded_trio_rep_bytes_are_pinned(self):
        """The seed-0 rep of the ``serve-elastic`` benchmark: the
        overloaded camera/lidar/radar trio on Poisson arrivals (seeds 1
        to 3) under the elastic policy for 5 s, resizes included."""
        tenants = [
            replace(t, arrivals=PoissonArrivals(t.arrivals.rate_hz, seed=i))
            for i, t in enumerate(mixed_rate_overloaded_tenants(), start=1)
        ]
        policy = ElasticPolicy(
            ServiceModel(MultiDNNScheduler()), control_interval_ms=10.0
        )
        result = ServingSimulator(policy).run(tenants, 5000.0)
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest == (
            "d07e441c6b243a4966df112e88c16a05d1a043438f59b787893f64b221af50ac"
        )


class TestServiceModel:
    def test_latency_cache_hits(self, scheduler):
        model = ServiceModel(scheduler)
        network = small_cnn_spec()
        first = model.latency_ms(network, 32)
        assert model.latency_ms(network, 32) == first
        assert len(model._runs) == 1

    def test_more_cores_never_slower(self, scheduler):
        model = ServiceModel(scheduler)
        network = net("mono", m=64, h=28)
        few = model.latency_ms(network, model.minimum_cores(network))
        many = model.latency_ms(network, 180)
        assert many <= few

    def test_restage_cost_positive_and_scales(self, scheduler):
        model = ServiceModel(scheduler)
        small = model.restage_ms(small_cnn_spec())
        large = model.restage_ms(net("big", m=128, h=28))
        assert 0 < small < large
