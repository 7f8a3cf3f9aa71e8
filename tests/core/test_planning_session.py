"""One planning session per scheduler: shared Eq. (1) times, one tier run
per distinct plan.

``MultiDNNScheduler.simulate_partition`` tiles, plans and pre-flights
every partition size on its own, on one Eq. (1) memo for the scheduler's
lifetime, and runs the tier once per distinct plan.  The reference is a
fresh scheduler for every call, which shares nothing.
"""

import json

import pytest

import repro.core.multi_dnn as multi_dnn
from repro.core.multi_dnn import MultiDNNScheduler
from repro.core.perfmodel import TimingParams
from repro.errors import ConfigurationError
from repro.mapping.capacity import CapacityModel
from repro.mapping.tiling import tile_network
from repro.nn.workloads import resnet18_spec
from repro.serving import ServiceModel
from repro.serving.scenarios import mixed_rate_overloaded_tenants
from repro.sim import SimConfig, get_backend
from repro.sim.accounting import plan_network

TIERS = ("streaming", "analytic")
BATCHES = (1, 4)


def networks():
    """camera, lidar and small_cnn: the overloaded serving trio."""
    return [tenant.network for tenant in mixed_rate_overloaded_tenants()]


def every_point(scheduler):
    """Each (network, cores, tier, batch_requests) the sweep covers:
    every partition size from the network's minimum to the array."""
    for network in networks():
        for cores in range(scheduler.minimum_cores(network), scheduler.array_size + 1):
            for tier in TIERS:
                for batch in BATCHES:
                    yield network, cores, tier, batch


def fresh_plan(network, cores):
    config = SimConfig(array_size=cores)
    tiled = tile_network(network, config.capacity, cores)
    return plan_network(tiled, config.strategy, config)


def count_tier_runs(monkeypatch):
    """The ``(tier, plan)`` of every tier run from now on."""
    runs = []
    for tier in TIERS:
        backend = get_backend(tier)
        run = backend.run

        def counting(network, plan, config, tier=tier, run=run):
            runs.append((tier, plan))
            return run(network, plan, config)

        monkeypatch.setattr(backend, "run", counting)
    return runs


def as_json(report):
    return json.dumps(report.as_dict(), sort_keys=True)


class TestSharedScheduler:
    def test_reports_equal_a_fresh_scheduler_per_call(self):
        shared = MultiDNNScheduler()
        for network, cores, tier, batch in every_point(shared):
            got = shared.simulate_partition(
                network, cores, backend=tier, batch_requests=batch
            )
            want = MultiDNNScheduler().simulate_partition(
                network, cores, backend=tier, batch_requests=batch
            )
            assert as_json(got) == as_json(want), (network.name, cores, tier, batch)

    def test_tier_runs_once_per_distinct_plan(self, monkeypatch):
        shared = MultiDNNScheduler()
        points = list(every_point(shared))
        runs = count_tier_runs(monkeypatch)
        reports = {}
        for network, cores, tier, batch in points:
            report = shared.simulate_partition(
                network, cores, backend=tier, batch_requests=batch
            )
            key = (tier, batch, repr(fresh_plan(network, cores)))
            # Every size that maps to one plan gets the same report.
            assert reports.setdefault(key, report) is report
        assert len(runs) == len(reports)
        # Far fewer plans than partition sizes.
        assert len(runs) < len(points) / 4

    def test_every_call_plans_and_preflights_its_own_size(self, monkeypatch):
        shared = MultiDNNScheduler()
        network = networks()[2]
        shared.simulate_partition(network, 100)
        planned, checked = [], []
        real_plan = multi_dnn.backends.plan_network
        real_preflight = multi_dnn.backends.preflight

        def planning(tiled, strategy, config, memo=None):
            planned.append(config.array_size)
            return real_plan(tiled, strategy, config, memo)

        def checking(plan, config):
            checked.append(config.array_size)
            return real_preflight(plan, config)

        monkeypatch.setattr(multi_dnn.backends, "plan_network", planning)
        monkeypatch.setattr(multi_dnn.backends, "preflight", checking)
        runs = count_tier_runs(monkeypatch)
        for cores in (100, 101, 100):
            shared.simulate_partition(network, cores)
        assert planned == checked == [100, 101, 100]
        same = repr(fresh_plan(network, 100)) == repr(fresh_plan(network, 101))
        assert len(runs) == (0 if same else 1)


class TestMachineKeyedMemo:
    @pytest.mark.parametrize(
        "other",
        [
            SimConfig(capacity=CapacityModel(compute_slices=8)),
            SimConfig(params=TimingParams(handshake_cost=100.0)),
        ],
        ids=["cmem-slices", "timing-param"],
    )
    def test_shared_memo_plans_what_fresh_calls_plan(self, other):
        base = SimConfig()
        network = tile_network(resnet18_spec(), base.capacity, base.array_size)
        assert tile_network(resnet18_spec(), other.capacity, other.array_size) == network
        fresh = {
            id(cfg): plan_network(network, cfg.strategy, cfg)
            for cfg in (base, other)
        }
        # The two machines allocate resnet18 differently ...
        assert fresh[id(base)] != fresh[id(other)]
        # ... so one memo must keep their times apart, in either order.
        for order in ((base, other), (other, base)):
            memo = {}
            for cfg in order:
                assert plan_network(network, cfg.strategy, cfg, memo) == fresh[id(cfg)]
            assert len(memo) == 2


class TestBounds:
    def test_report_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(multi_dnn, "DEFAULT_CACHE_SIZE", 3)
        shared = MultiDNNScheduler()
        for network, cores, tier, batch in every_point(shared):
            if cores % 7:
                continue
            got = shared.simulate_partition(
                network, cores, backend=tier, batch_requests=batch
            )
            assert len(shared._reports) <= 3
            want = MultiDNNScheduler().simulate_partition(
                network, cores, backend=tier, batch_requests=batch
            )
            assert as_json(got) == as_json(want)

    def test_timing_memo_holds_one_machine_and_its_layer_pairs(self):
        shared = MultiDNNScheduler()
        shapes = set()
        for network, cores, tier, batch in every_point(shared):
            if (tier, batch) == (TIERS[0], BATCHES[0]):  # planning is tier-free
                shared.simulate_partition(network, cores)
                shapes.update(spec.shape for spec in network)
        config = shared.config
        assert list(shared._times) == [(config.params, config.capacity)]
        (times,) = shared._times.values()
        # One entry per (shape, computing cores) pair, and no more cores
        # than the array has besides one DC.
        assert {shape for shape, _ in times} <= shapes
        assert all(1 <= nodes < shared.array_size for _, nodes in times)
        assert len(times) <= len(shapes) * (shared.array_size - 1)
        assert len(shared._reports) <= multi_dnn.DEFAULT_CACHE_SIZE


class TestServiceModelBound:
    @pytest.mark.parametrize("bound", [0, -1, 1.5, "2"])
    def test_bound_below_one_is_rejected_at_construction(self, bound):
        with pytest.raises(ConfigurationError, match="cache_size"):
            ServiceModel(MultiDNNScheduler(), cache_size=bound)

    def test_bound_of_one_keeps_the_last_lookup(self):
        service = ServiceModel(MultiDNNScheduler(), cache_size=1)
        network = networks()[2]
        first = service.partition_run(network, 60)
        assert service.partition_run(network, 60) is first
        service.partition_run(network, 70)
        assert len(service._runs) == 1
