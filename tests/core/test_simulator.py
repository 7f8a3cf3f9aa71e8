"""Chip-level simulation: strategies, energy accounting, paper shapes."""

import pytest

from repro.errors import MappingError
from repro.nn.workloads import resnet18_spec, small_cnn_spec
from repro.sim import simulate


@pytest.fixture(scope="module")
def resnet_runs():
    net = resnet18_spec()
    return {
        name: simulate(net, strategy=name)
        for name in ("single-layer", "greedy", "heuristic")
    }


class TestStrategyOrdering:
    """The paper's headline Table 6 shape."""

    def test_heuristic_fastest(self, resnet_runs):
        h = resnet_runs["heuristic"].latency_ms
        assert h < resnet_runs["greedy"].latency_ms
        assert h < resnet_runs["single-layer"].latency_ms

    def test_single_layer_slowest(self, resnet_runs):
        assert (
            resnet_runs["single-layer"].latency_ms
            > resnet_runs["greedy"].latency_ms
        )

    def test_ratios_near_paper(self, resnet_runs):
        """Paper: 24.1 : 10.4 : 5.1  ->  4.7x and 2.0x over heuristic."""
        h = resnet_runs["heuristic"].latency_ms
        single_ratio = resnet_runs["single-layer"].latency_ms / h
        greedy_ratio = resnet_runs["greedy"].latency_ms / h
        assert 2.5 < single_ratio < 7.0
        assert 1.4 < greedy_ratio < 3.5

    def test_heuristic_latency_magnitude(self, resnet_runs):
        """Paper: 5.138 ms on the 208-core array."""
        assert 3.0 < resnet_runs["heuristic"].latency_ms < 8.0


class TestTable7Shape:
    def test_throughput_near_200(self, resnet_runs):
        assert 120 < resnet_runs["heuristic"].throughput_samples_s < 330

    def test_power_near_25w(self, resnet_runs):
        assert 18 < resnet_runs["heuristic"].average_power_w < 32

    def test_efficiency_near_8(self, resnet_runs):
        assert 5 < resnet_runs["heuristic"].throughput_per_watt < 13

    def test_gops_per_watt_excludes_dram(self, resnet_runs):
        run = resnet_runs["heuristic"]
        assert run.gops_per_watt(include_dram=False) > run.gops_per_watt()


class TestEnergyAccounting:
    def test_dram_dominates(self, resnet_runs):
        fr = resnet_runs["heuristic"].energy.fractions()
        assert fr["dram"] > 0.5  # paper: 71%

    def test_cmem_and_noc_shares(self, resnet_runs):
        fr = resnet_runs["heuristic"].energy.fractions()
        assert 0.05 < fr["cmem"] < 0.2  # paper: 11%
        assert 0.05 < fr["noc"] < 0.2   # paper: 11%

    def test_fractions_sum_to_one(self, resnet_runs):
        fr = resnet_runs["heuristic"].energy.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_op_counts_nonzero(self, resnet_runs):
        ops = resnet_runs["heuristic"].ops
        assert ops.macs > 1e6
        assert ops.dram_bytes > resnet18_spec().total_macs // 1000
        assert ops.noc_flit_hops > 0


class TestPlans:
    def test_unknown_strategy(self):
        with pytest.raises(MappingError):
            simulate(resnet18_spec(), strategy="random")

    def test_segment_latency_lookup(self, resnet_runs):
        run = resnet_runs["heuristic"]
        segment = run.plan.segment_of(1)
        (segment_run,) = [r for r in run.runs if r.segment is segment]
        assert segment_run.cycles > 0
        with pytest.raises(MappingError):
            run.plan.segment_of(999)

    def test_small_network_runs(self):
        result = simulate(small_cnn_spec())
        assert result.latency_ms > 0
        assert result.total_cycles > 0

    def test_nodes_capped_by_array(self, resnet_runs):
        for name, run in resnet_runs.items():
            for seg_run in run.runs:
                assert seg_run.segment.total_nodes <= 208, name
