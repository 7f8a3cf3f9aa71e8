"""The paper's headline claims, asserted as reproduction targets.

Each test names the claim (abstract / Sec. 6) and the tolerance we hold
the reproduction to.  Shape matters more than absolute numbers: who wins,
by roughly what factor.
"""

import pytest

from repro.baselines.cpu_gpu import CPU_I9_13900K, GPU_RTX_4090
from repro.baselines.neural_cache import NeuralCacheModel
from repro.core.node import MAICCNode, table4_workload
from repro.energy.area import area_breakdown
from repro.nn.workloads import resnet18_spec
from repro.sim import simulate

import numpy as np


@pytest.fixture(scope="module")
def maicc_run():
    return simulate(resnet18_spec())


class TestAbstractClaims:
    def test_4_3x_throughput_over_cpu(self, maicc_run):
        cpu = CPU_I9_13900K.throughput_samples_s(resnet18_spec())
        ratio = maicc_run.throughput_samples_s / cpu
        assert 3.0 < ratio < 6.0  # paper: 4.3x

    def test_31_6x_efficiency_over_cpu(self, maicc_run):
        cpu = CPU_I9_13900K.throughput_per_watt(resnet18_spec())
        ratio = maicc_run.throughput_per_watt / cpu
        assert 20 < ratio < 45  # paper: 31.6x

    def test_1_8x_efficiency_over_gpu(self, maicc_run):
        gpu = GPU_RTX_4090.throughput_per_watt(resnet18_spec())
        ratio = maicc_run.throughput_per_watt / gpu
        assert 1.2 < ratio < 2.6  # paper: 1.8x

    def test_gpu_throughput_lead_kept(self, maicc_run):
        gpu = GPU_RTX_4090.throughput_samples_s(resnet18_spec())
        ratio = maicc_run.throughput_samples_s / gpu
        assert 0.1 < ratio < 0.35  # paper: 0.2x

    def test_28mm2_chip(self):
        assert area_breakdown().total == pytest.approx(28, rel=0.05)

    def test_about_4mb_on_chip_memory(self):
        from repro.core.chip import MAICCChip

        kb = MAICCChip().summary()["on_chip_memory_kb"]
        assert 3.9 * 1024 <= kb <= 4.4 * 1024


class TestSection6Claims:
    def test_2_3x_single_node_speedup_over_neural_cache(self):
        spec = table4_workload()
        rng = np.random.default_rng(0)
        node = MAICCNode(
            spec,
            rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s)),
            rng.integers(-100, 100, size=spec.m),
        )
        maicc = node.run(rng.integers(-128, 128, size=(spec.c, spec.h, spec.w)))
        cache = NeuralCacheModel().run(spec)
        ratio = cache.cycles / maicc.stats.cycles
        assert 1.8 < ratio < 4.5  # paper: 2.3x

    def test_dram_dominates_energy(self, maicc_run):
        assert maicc_run.energy.fractions()["dram"] == pytest.approx(0.71, abs=0.08)

    def test_latency_near_5ms(self, maicc_run):
        assert maicc_run.latency_ms == pytest.approx(5.13, rel=0.25)

    def test_power_near_25w(self, maicc_run):
        assert maicc_run.average_power_w == pytest.approx(24.67, rel=0.15)

    def test_maicc_more_efficient_than_neural_cache_chip_level(self, maicc_run):
        """Sec. 6.3: 50.03 vs 22.90 GFLOPS/W (2.2x), DRAM excluded."""
        ours = maicc_run.gops_per_watt(include_dram=False)
        assert ours > 22.90  # clearly above the Neural Cache figure
