"""The paper's headline claims (abstract and Sec. 6), asserted on the
runner's own results.

These read the same memoized default runs (the ``experiment`` fixture in
``tests/conftest.py``) as ``tests/experiments/test_experiments.py`` and
hold each claim to the same band as the Table 4, Table 7 and Figure 10
test that asserts it there.
"""

import pytest


@pytest.fixture
def t7(experiment):
    """The MAICC, CPU and GPU rows of Table 7."""
    by = {row["platform"]: row for row in experiment("table7").rows}
    return by["MAICC (210 cores)"], by["Intel i9-13900K"], by["NVIDIA RTX 4090"]


class TestAbstractClaims:
    def test_4_3x_throughput_over_cpu(self, t7):
        maicc, cpu, _ = t7
        ratio = maicc["throughput"] / cpu["throughput"]
        assert ratio == pytest.approx(4.3, rel=0.3)  # paper: 4.3x

    def test_1_8x_efficiency_over_gpu(self, t7):
        maicc, _, gpu = t7
        assert 1.2 < maicc["thr_per_w"] / gpu["thr_per_w"] < 2.6  # paper: 1.8x

    def test_gpu_throughput_lead_kept(self, t7):
        maicc, _, gpu = t7
        assert 0.1 < maicc["throughput"] / gpu["throughput"] < 0.35  # paper: 0.20x


class TestSection6Claims:
    def test_2_3x_single_node_speedup_over_neural_cache(self, experiment):
        t4 = experiment("table4")
        maicc = t4.row_by("node", "MAICC node")
        cache = t4.row_by("node", "Neural Cache")
        assert 1.8 < cache["cycles"] / maicc["cycles"] < 4.5  # paper: 2.3x

    def test_dram_dominates_energy(self, experiment):
        rows = {row["block"]: row for row in experiment("figure10").rows}
        assert rows["dram"]["energy_fraction"] == pytest.approx(0.71, abs=0.08)
