"""Differential pins: the backend layer changed nothing on the default path.

Every literal in this file was recorded from the pre-backend simulator
(the chip front door calling the streaming tier directly) and is asserted
with exact ``==`` — not approx — because the refactor's contract is
byte-identical results, and the backend loop replicates the historical
float evaluation order to keep it.  If one of these moves, the default
path changed, which is a regression regardless of which number is
"better".
"""

import hashlib
import json

import pytest

from repro.core.multi_dnn import MultiDNNScheduler
from repro.nn.workloads import (
    ConvLayerSpec,
    NetworkSpec,
    resnet18_spec,
    small_cnn_spec,
    vgg11_spec,
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

NETWORKS = {"resnet18": resnet18_spec, "small_cnn": small_cnn_spec, "vgg11": vgg11_spec}


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


# (network, tier, batch_requests) -> sha256 of the sorted-key JSON of
# ``RunReport.as_dict()``: every segment and per-layer ``LayerReport``
# field of every tier, recorded before the tiers shared one result type.
REPORT_DIGESTS = {
    ("resnet18", "analytic", 1): "1b002526c16000943cf817c4ed236a4f21c2d6c2df216172d3697b7a8d99d633",
    ("resnet18", "analytic", 3): "5bf4dc3b8ac4e3890374298a31b2be677f35ee38a5cda791be74a440b56ad461",
    ("resnet18", "cycle", 1): "4e403f18894eaa5038e6d35a71284468b69c0b11b4fca8167235afc177ec4eeb",
    ("resnet18", "cycle", 3): "900d2fcfd6f6e02277da6c3a40064f81e687516ef02e7fd731a784a1e84d83bf",
    ("resnet18", "event", 1): "a0b040ab1e8b37f537bdb842186f1d3f61b4cd34a591b7993ab7652d36383e79",
    ("resnet18", "event", 3): "f32403dfca929648eda370284a5a9108176dbaf39585017f2e6909a9eeb20fe1",
    ("resnet18", "streaming", 1): "ea58c1ec401b5716c5411623e1a2ef91f0ee7568bb5ae6f94c8fe02267cacda1",
    ("resnet18", "streaming", 3): "efc331158c995444de2c5568faccc922e01ed671ed8a58ae66ebc7beed571e7d",
    ("small_cnn", "analytic", 1): "dd2a831a0b9b56508bd91b4575844a203f6b08f9fd187a5036a302a8dce4cbfa",
    ("small_cnn", "analytic", 3): "991d80739a9fc5b5bbbe8a5de085916e9d6e26dfea342e6942337d048d3bf69d",
    ("small_cnn", "cycle", 1): "b2e230310e5432b7b2242d5c0a507f3a3acae36a7cbc8624a72e06cd1ffd0275",
    ("small_cnn", "cycle", 3): "e3d3e894cef8ac733f47d6c529e3f46a4fbb14735f4c3d5536b20cff16810665",
    ("small_cnn", "event", 1): "72a14db0ce93eb78fc343a3976272972a51b9b017baef03af8ff1a2f91791ae0",
    ("small_cnn", "event", 3): "10968781a61aa22859f1953bb276636c59ff940285af205cee5b697ebf79b6d5",
    ("small_cnn", "streaming", 1): "02b6bd27e6fcac5ac418cfcc457fd384fcee1b3832b7c87e822f31245e074131",
    ("small_cnn", "streaming", 3): "712c11e8e0a5286d3b068d41c53b2438369c5063f77ab516b304a51af2bd729c",
    ("vgg11", "analytic", 1): "c35e9effd304e576691861a80ccde0112f310abb1fc8377f5dc2d1c6d3aa7376",
    ("vgg11", "analytic", 3): "ca282bf95a8ef73546a51a6ccf8395267f9f5f9cfa6fa32a5d093c639fc736a2",
    ("vgg11", "event", 1): "2fe4462031b2ca684aabe945db73dbd410b271b075f093daef4a928dbc04f5a7",
    ("vgg11", "event", 3): "1dc0e3d79463d39893554a648590c6bd0f11378faceedbe889c4fd46611aff2e",
    ("vgg11", "streaming", 1): "a716969a40a83edea2ceb28d92ce4ccee1d85c4ec0c391ea095f450571e3d699",
    ("vgg11", "streaming", 3): "5bbb8d5015774fcb8efaf46dc13c814c4e7e4a68865a9a6c6ab7e00aa4f9096f",
}


class TestRunReportDigests:
    @pytest.mark.parametrize("network,backend,requests", sorted(REPORT_DIGESTS))
    def test_report_document_byte_identical(self, network, backend, requests):
        report = simulate(NETWORKS[network](), backend=backend, batch_requests=requests)
        document = json.dumps(report.as_dict(), sort_keys=True)
        digest = hashlib.sha256(document.encode()).hexdigest()
        assert digest == REPORT_DIGESTS[(network, backend, requests)]


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
