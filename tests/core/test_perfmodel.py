"""The Eq. (1) performance model: closed forms, monotonicity, components."""

import math

import pytest

from repro.cmem.isa import MAC_C, MOVE_C, cmem_op_cycles
from repro.core.perfmodel import PerformanceModel, TimingParams, start_offsets
from repro.errors import CMemError, MappingError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, resnet18_spec
from repro.sim import simulate


def spec(c=256, m=50, h=14, **kw):
    defaults = dict(r=3, s=3, stride=1, padding=1)
    defaults.update(kw)
    return ConvLayerSpec(0, "t", h=h, w=h, c=c, m=m, **defaults)


class TestClosedForms:
    def test_paper_iteration_formula_with_slice_parallelism(self):
        """Sec 4.1: a full node (Q filters/slice) iterates in 7N + Q N^2."""
        model = PerformanceModel(TimingParams(slice_parallel_cmem=True))
        # 5 filters of 3x3x256 = 45 vectors in 7 slices; interior pixels MAC
        # against all filter pixels.  Use stride-1 padded layer so density=1.
        t4 = spec(m=5, h=9)
        timing = model.iteration_timing(t4, 1)
        n, q = 8, 7
        # ceil(45/7) = 7 MACs per slice: exactly Q N^2 + 7N.
        assert timing.t_cmem == pytest.approx(7 * n + q * n * n, rel=0.05)

    def test_serial_cmem_linear_in_filters(self):
        """Eq. (1): T_CMem = k1 * n_i under the many-core model."""
        model = PerformanceModel(TimingParams(slice_parallel_cmem=False))
        t1 = model.iteration_timing(spec(m=50), 25).t_cmem   # 2 filters/node
        t2 = model.iteration_timing(spec(m=100), 25).t_cmem  # 4 filters/node
        assert t2 > 1.8 * t1

    @pytest.mark.parametrize("n_bits", [2, 4, 8, 16])
    def test_cmem_time_is_table2_cycles(self, n_bits):
        """T_CMem charges each Move.C and MAC.C its Table 2 cost."""
        model = PerformanceModel()
        layer = spec(m=50, n_bits=n_bits)
        timing = model.iteration_timing(layer, 25)
        moves = model.slices_used(layer, 25)  # one 256-channel sub-vector
        assert timing.t_cmem == (
            moves * cmem_op_cycles(MOVE_C, n_bits)
            + timing.macs_per_iteration * cmem_op_cycles(MAC_C, n_bits)
        )

    def test_operand_wider_than_a_cmem_word_is_rejected(self):
        model = PerformanceModel(capacity=CapacityModel(rows=256))
        with pytest.raises(CMemError):
            model.iteration_timing(spec(m=4, n_bits=40), 2)

    def test_mac_count_density_for_stride(self):
        model = PerformanceModel()
        dense = model.iteration_timing(spec(m=50, stride=1), 10)
        strided = model.iteration_timing(spec(m=50, stride=2, h=28), 10)
        assert strided.macs_per_iteration < dense.macs_per_iteration


class TestMonotonicity:
    def test_more_nodes_never_slower_per_iteration(self):
        model = PerformanceModel()
        layer = spec(m=100)
        times = [
            model.iteration_timing(layer, nodes).total
            for nodes in range(20, 101, 10)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))

    def test_interval_floors_at_dc_rate(self):
        model = PerformanceModel()
        layer = spec(m=100)
        lt = model.layer_timing(layer, 100)
        assert lt.interval >= lt.dc.total


class TestDCTiming:
    def test_dram_fetch_only_when_requested(self):
        model = PerformanceModel()
        on = model.dc_timing(spec(), from_dram=True)
        off = model.dc_timing(spec(), from_dram=False)
        assert on.t_fetch > 0 and off.t_fetch == 0
        assert on.t_transpose == off.t_transpose

    def test_wide_channels_double_transpose(self):
        model = PerformanceModel()
        narrow = model.dc_timing(spec(c=256), from_dram=False)
        wide = model.dc_timing(spec(c=512), from_dram=False)
        assert wide.t_transpose == 2 * narrow.t_transpose


class TestIterations:
    def test_full_coverage_for_3x3(self):
        model = PerformanceModel()
        assert model.required_iterations(spec(h=14)) == 196

    def test_strided_1x1_subsamples(self):
        model = PerformanceModel()
        shortcut = ConvLayerSpec(0, "sc", h=56, w=56, c=64, m=128,
                                 r=1, s=1, stride=2, padding=0)
        assert model.required_iterations(shortcut) == 784

    def test_strided_1x1_on_odd_ifmap_streams_the_whole_subgrid(self):
        # Rows and columns 0, 2, 4 and 6 of a 7x7 ifmap: a 4x4 subgrid.
        model = PerformanceModel()
        shortcut = spec(h=7, r=1, s=1, stride=2, padding=0)
        assert model.required_iterations(shortcut) == 16

    def test_unpadded_strided_3x3_skips_the_unread_edge(self):
        # Two windows per axis on 6x6 read rows/columns 0..4; the last
        # row and column feed no output.
        model = PerformanceModel()
        assert model.required_iterations(spec(h=6, stride=2, padding=0)) == 25

    def test_a_layer_that_streams_nothing_is_a_mapping_error(self):
        # 1x1 stride-3 pad-2 windows on a 1x4 ifmap start at rows -2 and
        # 1: no window reads row 0.
        model = PerformanceModel()
        empty = ConvLayerSpec(0, "z", h=1, w=4, c=16, m=16, r=1, s=1,
                              stride=3, padding=2)
        with pytest.raises(MappingError, match="streams no ifmap vector"):
            model.required_iterations(empty)


class TestSegmentTiming:
    def test_pipelining_beats_serial_execution(self):
        model = PerformanceModel()
        layers = [model.layer_timing(spec(m=60), 30) for _ in range(3)]
        finish = max(
            offset + lt.standalone_cycles
            for offset, lt in zip(start_offsets(layers), layers)
        )
        serial = sum(lt.standalone_cycles for lt in layers)
        assert finish < serial

    def test_start_offsets_increase(self):
        model = PerformanceModel()
        layers = [model.layer_timing(spec(m=60), 30) for _ in range(3)]
        offsets = start_offsets(layers)
        assert offsets == sorted(offsets)

    def test_filter_load_mostly_hidden(self):
        """Sec. 6.2: "in most cases the filter load phase takes no more
        than 10% of the total time".  Checked on the charge the backends
        bill; the exception is ResNet18's FC tail, whose 512x1000 weights
        load for a single vector of compute."""
        for backend in ("analytic", "streaming"):
            *convs, tail = simulate(resnet18_spec(), backend=backend).runs
            assert len(convs) == 7
            assert [layer.name for layer in tail.segment.layers] == ["linear"]
            for run in convs:
                assert run.filter_load_cycles / run.cycles < 0.086
            assert tail.filter_load_cycles / tail.cycles < 0.337


class TestOverlapFlag:
    def test_eq1_max_vs_sum(self):
        on = PerformanceModel(TimingParams(overlap=True)).iteration_timing(spec(), 10)
        off = PerformanceModel(TimingParams(overlap=False)).iteration_timing(spec(), 10)
        assert off.total == pytest.approx(off.t_cmem + off.t_scalar + off.t_forward)
        assert on.total == pytest.approx(max(on.t_cmem, on.t_scalar + on.t_forward))
        assert on.total <= off.total
