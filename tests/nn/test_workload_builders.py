"""The extended workload builders: VGG, MLP, LSTM, Transformer."""

import pytest

from repro.nn.workloads import (
    lstm_cell_spec,
    mlp_spec,
    transformer_block_spec,
    vgg11_spec,
)
from repro.sim import simulate


class TestVGG11:
    def test_layer_count(self):
        assert len(vgg11_spec()) == 10  # 7 convs + 3 FCs (stem excluded)

    def test_fc6_geometry(self):
        fc6 = vgg11_spec().layer(8)
        assert (fc6.c, fc6.m) == (512 * 49, 4096)
        assert fc6.kind == "linear"

    def test_mac_magnitude(self):
        # VGG-11 is ~7.6 GMACs; without the stem, ~7.5.
        assert 6e9 < vgg11_spec().total_macs < 8.5e9


class TestMLP:
    def test_default_stack(self):
        net = mlp_spec()
        assert len(net) == 3
        assert net.layer(1).c == 512 and net.layer(3).m == 256

    def test_custom_widths(self):
        net = mlp_spec([10, 20, 30])
        assert [(s.c, s.m) for s in net] == [(10, 20), (20, 30)]

    def test_runs_on_chip(self):
        result = simulate(mlp_spec())
        assert result.latency_ms > 0


class TestLSTM:
    def test_gate_matrices(self):
        net = lstm_cell_spec(hidden=256, inputs=128)
        assert net.layer(1).m == 4 * 256
        assert net.layer(1).c == 128
        assert net.layer(2).c == 256

    def test_runs_on_chip(self):
        result = simulate(lstm_cell_spec())
        assert result.latency_ms > 0


class TestTransformer:
    def test_six_weight_matmuls(self):
        net = transformer_block_spec()
        assert len(net) == 6
        assert net.layer(5).m == 2048  # ffn up-projection

    def test_ffn_dominates_macs(self):
        net = transformer_block_spec()
        ffn = net.layer(5).macs + net.layer(6).macs
        attn = sum(net.layer(i).macs for i in (1, 2, 3, 4))
        assert ffn > attn

    def test_runs_on_chip(self):
        result = simulate(transformer_block_spec())
        assert result.latency_ms > 0


class TestMultiModelMix:
    def test_heterogeneous_models_partition_together(self):
        """The paper's point: one chip, several model *types* at once."""
        from repro.core.multi_dnn import MultiDNNScheduler
        from repro.nn.workloads import small_cnn_spec

        result = MultiDNNScheduler().run(
            [small_cnn_spec(), lstm_cell_spec(hidden=128, inputs=128),
             transformer_block_spec(d_model=128, d_ff=512)]
        )
        assert len(result.runs) == 3
        assert result.aggregate_throughput > 0
