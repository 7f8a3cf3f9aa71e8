"""Differential pins: the backend layer changed nothing on the default path.

Every literal in this file was recorded from the pre-backend simulator
(the chip front door calling the streaming tier directly) and is asserted
with exact ``==`` — not approx — because the refactor's contract is
byte-identical results, and the backend loop replicates the historical
float evaluation order to keep it.  If one of these moves, the default
path changed, which is a regression regardless of which number is
"better".
"""

import pytest

from repro.core.multi_dnn import MultiDNNScheduler
from repro.nn.workloads import (
    ConvLayerSpec,
    NetworkSpec,
    resnet18_spec,
    small_cnn_spec,
)
from repro.serving import (
    ElasticPolicy,
    PoissonArrivals,
    ServiceModel,
    ServingSimulator,
    StaticPartitionPolicy,
    TenantSpec,
)
from repro.sim import simulate

# (network factory, strategy) -> total cycles recorded pre-refactor.
CYCLE_PINS = {
    ("resnet18", "heuristic"): 5004113.056004865,
    ("resnet18", "single-layer"): 18799192.1944664,
    ("resnet18", "greedy"): 12099837.79926746,
    ("small_cnn", "heuristic"): 76944.4,
    ("small_cnn", "single-layer"): 122470.40000000001,
    ("small_cnn", "greedy"): 155874.4,
}

NETWORKS = {"resnet18": resnet18_spec, "small_cnn": small_cnn_spec}


class TestDefaultPathCycles:
    @pytest.mark.parametrize("network,strategy", sorted(CYCLE_PINS))
    def test_total_cycles_byte_identical(self, network, strategy):
        result = simulate(NETWORKS[network](), strategy=strategy)
        assert result.total_cycles == CYCLE_PINS[(network, strategy)]

    def test_simulate_front_door_matches_chip_simulator(self):
        for (network, strategy), pin in sorted(CYCLE_PINS.items()):
            report = simulate(NETWORKS[network](), strategy=strategy)
            assert report.total_cycles == pin

    def test_headline_energy_and_latency(self):
        result = simulate(resnet18_spec())
        assert result.energy.total == 0.12000990729695662
        assert result.latency_ms == 5.004113056004866

    def test_batch_streaming(self):
        result = simulate(resnet18_spec(), batch=4)
        assert result.total_cycles == 18608956.43940407
        assert result.throughput_samples_s == 214.95025865771197


def _smoke_tenants():
    beta = NetworkSpec(
        name="beta",
        layers=(ConvLayerSpec(1, "beta0", h=14, w=14, c=64, m=32),),
    )
    return [
        TenantSpec("alpha", small_cnn_spec(),
                   PoissonArrivals(150, seed=7), deadline_ms=20.0),
        TenantSpec("beta", beta,
                   PoissonArrivals(100, seed=8), deadline_ms=20.0),
    ]


# policy -> tenant -> (p50_ms, p99_ms, completed), recorded pre-refactor.
SERVING_PINS = {
    "static": {
        "alpha": (0.07694440000000036, 0.07694440000000209, 19),
        "beta": (0.16979520000000137, 0.1697952000000029, 6),
    },
    "elastic": {
        "alpha": (0.07694440000000036, 0.07694440000000209, 19),
        "beta": (0.17503132147247763, 0.6098885840000019, 6),
    },
}


class TestServingLatencyPins:
    @pytest.mark.parametrize("policy_name", sorted(SERVING_PINS))
    def test_smoke_scenario_byte_identical(self, policy_name):
        scheduler = MultiDNNScheduler()
        if policy_name == "static":
            policy = StaticPartitionPolicy(scheduler)
        else:
            policy = ElasticPolicy(
                ServiceModel(scheduler), control_interval_ms=10.0
            )
        result = ServingSimulator(policy).run(_smoke_tenants(), 80.0)
        for tenant, (p50, p99, completed) in SERVING_PINS[policy_name].items():
            report = result.reports[tenant]
            assert report.p50_ms == p50
            assert report.p99_ms == p99
            assert report.completed == completed
