"""Multi-DNN spatial partitioning."""

import pytest

from repro.core.multi_dnn import MultiDNNResult, MultiDNNScheduler
from repro.errors import MappingError, SimulationError
from repro.mapping.placement import zigzag_placement
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec


def tiny_net(name, m=32, h=14, layers=2):
    specs = tuple(
        ConvLayerSpec(i + 1, f"{name}_c{i}", h=h, w=h, c=64, m=m)
        for i in range(layers)
    )
    return NetworkSpec(name=name, layers=specs)


def perception_net():
    """A camera-pipeline-shaped CNN (autonomous-driving motivation)."""
    layers = (
        ConvLayerSpec(1, "backbone1", h=28, w=28, c=64, m=64),
        ConvLayerSpec(2, "backbone2", h=28, w=28, c=64, m=64),
        ConvLayerSpec(3, "head", h=14, w=14, c=64, m=128, stride=1),
    )
    return NetworkSpec(name="perception", layers=layers)


def lidar_net():
    layers = (
        ConvLayerSpec(1, "voxel1", h=14, w=14, c=128, m=64),
        ConvLayerSpec(2, "voxel2", h=14, w=14, c=64, m=64),
    )
    return NetworkSpec(name="lidar", layers=layers)


#: Concurrent model mixes: synthetic nets plus the small CNN, and a
#: camera + lidar + classifier mix shaped like a driving stack.
MIXES = {
    "synthetic": lambda: [tiny_net("a"), tiny_net("b"), small_cnn_spec()],
    "driving": lambda: [perception_net(), lidar_net(), small_cnn_spec()],
}


@pytest.fixture(scope="module")
def scheduler():
    return MultiDNNScheduler()


class TestPartitioning:
    def test_shares_cover_array(self, scheduler):
        nets = [tiny_net("a"), tiny_net("b", m=64)]
        shares = scheduler.partition(nets)
        assert sum(shares) == 208
        assert all(s > 0 for s in shares)

    def test_heavier_model_gets_more_cores(self, scheduler):
        for nets in (
            [tiny_net("light", m=32, h=7), tiny_net("heavy", m=64, h=28)],
            [lidar_net(), perception_net()],
        ):
            assert nets[0].total_macs < nets[1].total_macs
            shares = scheduler.partition(nets)
            assert shares[1] > shares[0], [n.name for n in nets]

    def test_empty_rejected(self, scheduler):
        with pytest.raises(MappingError):
            scheduler.partition([])

    def test_overcommitted_rejected(self):
        scheduler = MultiDNNScheduler(array_size=12)
        nets = [tiny_net("a", m=128, h=28), tiny_net("b", m=128, h=28)]
        with pytest.raises(MappingError):
            scheduler.partition(nets)


class TestConcurrentExecution:
    def test_parallel_beats_time_sharing(self, scheduler):
        for mix, nets in MIXES.items():
            result = scheduler.run(nets())
            assert result.parallel_latency_ms < result.time_shared_latency_ms, mix
            assert result.speedup_vs_time_shared > 1.0, mix
            assert result.aggregate_throughput > result.time_shared_throughput, mix
            assert len(result.runs) == 3, mix
            assert all(run.latency_ms > 0 for run in result.runs), mix

    def test_aggregate_throughput_counts_all_models(self, scheduler):
        nets = [tiny_net("a"), tiny_net("b")]
        result = scheduler.run(nets)
        assert result.aggregate_throughput == pytest.approx(
            sum(r.throughput for r in result.runs)
        )
        assert result.aggregate_throughput > result.time_shared_throughput

    def test_each_model_gets_its_partition(self, scheduler):
        nets = [tiny_net("a"), tiny_net("b")]
        result = scheduler.run(nets)
        for run in result.runs:
            for seg_run in run.result.runs:
                assert seg_run.segment.total_nodes <= run.partition_cores


class TestEmptyResult:
    def test_aggregates_raise_clearly_on_empty_runs(self):
        # Regression: these used to surface as a bare ValueError from
        # max() on an empty sequence.
        result = MultiDNNResult(runs=[], time_shared_latency_ms=1.0)
        with pytest.raises(SimulationError, match="no model runs"):
            result.parallel_latency_ms
        with pytest.raises(SimulationError, match="no model runs"):
            result.aggregate_throughput
        with pytest.raises(SimulationError, match="no model runs"):
            result.time_shared_throughput
        with pytest.raises(SimulationError, match="no model runs"):
            result.speedup_vs_time_shared


class TestPartitionHelpers:
    def test_minimum_cores_lower_bounds_every_share(self, scheduler):
        nets = [tiny_net("a"), tiny_net("b", m=64), small_cnn_spec()]
        shares = scheduler.partition(nets)
        for net_, share in zip(nets, shares):
            assert share >= scheduler.minimum_cores(net_)


def segments(run):
    return [seg_run.segment for seg_run in run.result.runs]


class TestSpatialIsolation:
    def test_models_never_share_a_tile(self, scheduler, region_tiles):
        nets = [tiny_net("a"), tiny_net("b", m=64), small_cnn_spec()]
        result = scheduler.run(nets)
        tile_sets = [
            region_tiles(segments(run), run.region_start)
            for run in result.runs
        ]
        for i in range(len(tile_sets)):
            for j in range(i + 1, len(tile_sets)):
                assert not (tile_sets[i] & tile_sets[j]), (i, j)

    def test_regions_are_contiguous_snake_intervals(self, scheduler):
        nets = [tiny_net("a"), tiny_net("b", m=64)]
        result = scheduler.run(nets)
        starts = [run.region_start for run in result.runs]
        assert starts[0] == 0
        assert starts[1] == result.runs[0].partition_cores

    def test_chains_stay_adjacent_inside_regions(self, scheduler, chain_hops):
        nets = [tiny_net("a"), tiny_net("b", m=64)]
        result = scheduler.run(nets)
        for run in result.runs:
            for segment in segments(run):
                placement = zigzag_placement(
                    segment,
                    scheduler.config.chip.compute_region,
                    start_offset=run.region_start,
                )
                # Snake intervals keep consecutive cores within 1 hop
                # except at most at the interval's row boundaries.
                hops = [
                    h for idx in placement.dc
                    for h in chain_hops(placement, idx)
                ]
                assert sum(hops) / len(hops) < 1.5
