"""The ablations beyond the paper, asserted on the runner's own results.

Most tests read the memoized default run of each ablation (the
``experiment`` fixture in ``tests/conftest.py``).  The rest measure what
no experiment computes: bit-true MAC cycles at each width, the
element-wise dot product on the bit-serial ALU, chain hops and packet
counts per placement, and the Neural Cache reduction share.
"""

import numpy as np
import pytest

from repro.baselines.neural_cache import NeuralCacheModel
from repro.cmem.cmem import CMem
from repro.core.node import table4_workload
from repro.core.perfmodel import PerformanceModel
from repro.core.traffic import simulate_segment_traffic
from repro.mapping.capacity import CapacityModel
from repro.mapping.placement import (
    random_placement,
    raster_placement,
    zigzag_placement,
)
from repro.mapping.segmentation import HeuristicStrategy
from repro.nn.workloads import resnet18_spec
from repro.sram.array import SRAMArray, SRAMArrayConfig
from repro.utils.bitops import int_to_bits
from tests.bitserial import BitSerialALU
from repro.sim.config import SimConfig


def strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


class TestSliceAblation:
    @pytest.fixture
    def result(self, experiment):
        return experiment("ablation-slices")

    def test_latency_improves_with_slices(self, result):
        latencies = result.column("latency_ms")
        assert latencies == sorted(latencies, reverse=True)

    def test_capacity_grows_with_slices(self, result):
        assert strictly_increasing(result.column("filters_per_node"))

    def test_seven_slices_is_the_single_pass_floor(self, result):
        """Below seven compute slices conv4_x is tiled into passes."""
        assert result.column("slices") == [3, 5, 7, 10, 14]
        assert result.column("passes") == [3, 2, 1, 1, 1]

    def test_fewer_slices_need_more_nodes(self):
        spec = resnet18_spec().layer(12)  # conv3_2
        assert (
            CapacityModel(compute_slices=3).min_nodes(spec)
            > CapacityModel(compute_slices=7).min_nodes(spec)
        )


class TestPrecisionAblation:
    @pytest.fixture
    def result(self, experiment):
        return experiment("ablation-precision")

    def test_mac_cycles_quadratic(self, result):
        """MAC.C costs n^2 cycles, measured bit-true on CMem at each width."""
        measured = []
        for n in result.column("n_bits"):
            rng = np.random.default_rng(n)
            lo, hi = -(1 << (n - 1)), 1 << (n - 1)
            a = rng.integers(lo, hi, 256)
            b = rng.integers(lo, hi, 256)
            cmem = CMem()
            cmem.store_vector_transposed(1, 0, a, n, signed=True)
            cmem.store_vector_transposed(1, n, b, n, signed=True)
            assert cmem.mac(1, 0, n, n, signed=True) == int(np.dot(a, b))
            measured.append(cmem.stats.busy_cycles)
        assert result.column("mac_cycles") == measured == [4, 16, 64, 256]

    def test_lower_precision_faster(self, result):
        assert result.column("n_bits") == [2, 4, 8, 16]
        assert strictly_increasing(result.column("resnet_latency_ms"))

    def test_capacity_formula(self, result):
        rows = {row["n_bits"]: row for row in result.rows}
        for n in (2, 4, 8, 16):
            assert rows[n]["slots_per_slice"] == 64 // n - 1

    def test_int16_needs_three_passes(self, result):
        """int16 leaves Q = 3 slots per slice, so conv4_x is tiled."""
        assert result.column("passes") == [1, 1, 1, 3]


def element_wise_dot(a, b):
    """Dot product via Neural-Cache primitives on a 256x256 array."""
    alu = BitSerialALU(SRAMArray(SRAMArrayConfig(rows=256, cols=256)))

    def stage(rows, values):
        bits = int_to_bits(values, 8, signed=False)
        padded = np.zeros((8, 256), dtype=np.uint8)
        padded[:, : len(values)] = bits
        for i, row in enumerate(rows):
            alu.array.write_row(row, padded[i])

    stage(range(0, 8), a)
    stage(range(8, 16), b)
    alu.vector_multiply(list(range(0, 8)), list(range(8, 16)), list(range(16, 32)))
    rows = alu.reduce(list(range(16, 32)), 256, scratch_rows=list(range(32, 80)))
    bits = np.stack([alu.array.read_row(r)[:1] for r in rows])
    total = int(sum(int(bits[i, 0]) << i for i in range(len(rows))))
    return total, alu.cycles


class TestPrimitiveAblation:
    def test_mac_primitive_wins(self, experiment):
        rows = {row["approach"]: row for row in experiment("ablation-primitives").rows}
        ew = rows["element-wise (Neural Cache)"]["cycles_per_dot_product"]
        mac = rows["adder-tree MAC (MAICC)"]["cycles_per_dot_product"]
        assert ew / mac > 2.0

    def test_same_answer_both_primitives(self):
        """Bit-true on both paths: same dot product, >2x fewer MAC cycles."""
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, 256)
        b = rng.integers(0, 256, 256)
        ew_value, ew_cycles = element_wise_dot(a, b)
        cmem = CMem()
        cmem.store_vector_transposed(1, 0, a, 8, signed=False)
        cmem.store_vector_transposed(1, 8, b, 8, signed=False)
        assert ew_value == cmem.mac(1, 0, 8, 8, signed=False) == int(np.dot(a, b))
        assert ew_cycles / cmem.stats.busy_cycles > 2.0

    def test_reduction_share_of_element_wise(self):
        """The reduction step MAC eliminates is ~23% of element-wise conv
        cycles (Sec. 3.2)."""
        result = NeuralCacheModel().run(table4_workload())
        assert result.reduction_fraction == pytest.approx(0.23, abs=0.03)


class TestPlacementAblation:
    @pytest.fixture(scope="class")
    def segment(self):
        """Layers 7-11 (~190 cores), the segment ``run_placement`` replays."""
        plan = HeuristicStrategy(SimConfig().array_size).plan(
            resnet18_spec(), PerformanceModel().layer_time_fn()
        )
        return plan.segments[1]

    def test_zigzag_minimal(self, experiment):
        """Zig-zag minimizes both flit-hops and wave completion time."""
        rows = {row["policy"]: row for row in experiment("ablation-placement").rows}
        zigzag, raster, random = rows["zig-zag"], rows["raster"], rows["random"]
        assert zigzag["flit_hops"] < raster["flit_hops"] < random["flit_hops"]
        assert zigzag["completion_cycles"] <= raster["completion_cycles"]
        assert zigzag["completion_cycles"] < random["completion_cycles"]

    def test_zigzag_chain_hops_are_minimal(self, segment, chain_hops):
        def mean_chain_hops(placement):
            hops = [h for index in placement.dc for h in chain_hops(placement, index)]
            return sum(hops) / len(hops)

        region = SimConfig().chip.compute_region
        assert mean_chain_hops(zigzag_placement(segment, region)) == pytest.approx(1.0)
        assert mean_chain_hops(raster_placement(segment, region)) > 1.0

    def test_same_packet_count_all_placements(self, segment):
        """Placement changes distance, never the traffic volume."""
        machine = SimConfig()
        region = machine.chip.compute_region
        a = simulate_segment_traffic(
            segment, zigzag_placement(segment, region), machine
        )
        b = simulate_segment_traffic(
            segment, random_placement(segment, region, seed=3), machine
        )
        assert a.packets == b.packets


class TestBatchAblation:
    @pytest.fixture
    def rows(self, experiment):
        return {row["batch"]: row for row in experiment("ablation-batch").rows}

    def test_throughput_monotone(self, rows):
        """Throughput rises with batch and saturates: batch 1 is already
        near the steady-state pipeline rate."""
        thr = {b: row["samples_per_s"] for b, row in rows.items()}
        assert list(thr.values()) == sorted(thr.values())
        assert thr[1] < thr[2] < thr[8]
        gain_1_to_8 = thr[8] / thr[1]
        assert gain_1_to_8 > 1.02
        assert thr[32] / thr[8] < gain_1_to_8
        assert thr[32] / thr[1] < 1.3

    def test_efficiency_improves_with_batch(self, rows):
        assert rows[32]["samples_per_s_per_w"] > rows[1]["samples_per_s_per_w"]

    def test_total_latency_scales_with_batch(self, rows):
        one, four = rows[1]["total_ms"], rows[4]["total_ms"]
        assert 3 * one < four < 4.2 * one


def test_cli_includes_ablations():
    from repro.experiments.runner import PAPER_EXPERIMENTS, REGISTRY

    assert set(PAPER_EXPERIMENTS) < set(REGISTRY)
    assert "ablation-placement" in REGISTRY
