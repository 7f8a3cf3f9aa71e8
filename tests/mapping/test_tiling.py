"""Output-channel tiling of array-oversized layers."""

import pytest

from repro.mapping.capacity import CapacityModel
from repro.mapping.tiling import passes_required, tile_network
from repro.nn.workloads import (
    ConvLayerSpec,
    resnet18_spec,
    vgg11_spec,
)

CAP = CapacityModel()


class TestPassesRequired:
    def test_fitting_layer_needs_one_pass(self):
        spec = resnet18_spec().layer(12)
        assert passes_required(spec, CAP, 208) == 1

    def test_split_filter_layer_still_one_pass(self):
        spec = resnet18_spec().layer(17)  # conv4_2 fits via split filters
        assert passes_required(spec, CAP, 208) == 1

    def test_vgg_fc6_needs_many_passes(self):
        fc6 = vgg11_spec().layer(8)
        assert passes_required(fc6, CAP, 208) > 1


class TestTileNetwork:
    def test_resnet_unchanged(self):
        net = resnet18_spec()
        assert tile_network(net, CAP, 208) is net

    def test_vgg_tiled(self):
        tiled = tile_network(vgg11_spec(), CAP, 208)
        assert len(tiled.layers) > len(vgg11_spec().layers)
        names = [s.name for s in tiled.layers]
        assert "fc6@p0" in names and "fc6@p1" in names

    def test_tiles_preserve_total_filters(self):
        original = vgg11_spec()
        tiled = tile_network(original, CAP, 208)
        for base in original:
            total = sum(
                s.m for s in tiled.layers
                if s.name == base.name or s.name.startswith(base.name + "@")
            )
            assert total == base.m, base.name

    def test_indices_renumbered(self):
        tiled = tile_network(vgg11_spec(), CAP, 208)
        assert [s.index for s in tiled.layers] == list(range(1, len(tiled.layers) + 1))

    def test_every_tile_fits(self):
        tiled = tile_network(vgg11_spec(), CAP, 208)
        for spec in tiled.layers:
            assert CAP.min_nodes(spec, max_nodes=207) <= 207

    def test_idempotent(self):
        once = tile_network(vgg11_spec(), CAP, 208)
        twice = tile_network(once, CAP, 208)
        assert [s.name for s in once.layers] == [s.name for s in twice.layers]


class TestEndToEnd:
    def test_vgg_runs_on_the_chip(self):
        from repro.sim import simulate

        result = simulate(vgg11_spec())
        assert result.latency_ms > 0
        # FC-heavy VGG is weight-load-bound: much slower than ResNet18
        # despite comparable conv work.
        resnet = simulate(resnet18_spec())
        assert result.latency_ms > resnet.latency_ms
