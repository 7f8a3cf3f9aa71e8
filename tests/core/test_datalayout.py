"""CMem data layout (Fig. 6): placement, masks, filter loading."""

import numpy as np
import pytest

from repro.cmem.cmem import CMem
from repro.core.datalayout import (
    load_filters_into_cmem,
    plan_node_layout,
    split_filters_across_nodes,
)
from repro.errors import CapacityError
from repro.nn.workloads import ConvLayerSpec
from tests.readback import read_transposed


def spec_3x3(c=256, m=5, h=9):
    return ConvLayerSpec(0, "t", h=h, w=h, c=c, m=m, padding=0)


class TestPlanLayout:
    def test_table4_layout_fits(self):
        layout = plan_node_layout(spec_3x3(), 5)
        assert len(layout.entries) == 45
        assert set(layout.slices_used) <= set(range(1, 8))

    def test_ifmap_rows_reserved(self):
        layout = plan_node_layout(spec_3x3(), 5)
        assert all(e.row >= 8 for e in layout.entries)

    def test_rows_within_slice(self):
        layout = plan_node_layout(spec_3x3(), 5)
        assert all(e.row + 8 <= 64 for e in layout.entries)

    def test_slots_do_not_collide(self):
        layout = plan_node_layout(spec_3x3(), 5)
        slots = {(e.slice_index, e.row) for e in layout.entries}
        assert len(slots) == len(layout.entries)

    def test_entry_lookup(self):
        """Each filter pixel of each filter has exactly one layout entry."""
        layout = plan_node_layout(spec_3x3(), 2)
        keys = [(e.filter_index, e.fr, e.fs, e.sub) for e in layout.entries]
        assert len(keys) == len(set(keys)) == 2 * 3 * 3
        assert (1, 2, 2, 0) in keys
        assert not any(e.filter_index == 5 for e in layout.entries)

    def test_capacity_enforced(self):
        with pytest.raises(CapacityError):
            plan_node_layout(spec_3x3(m=6), 6)  # 54 slots > 49

    def test_csr_mask_by_channels(self):
        assert plan_node_layout(spec_3x3(c=256), 5).csr_mask == 0xFF
        assert plan_node_layout(spec_3x3(c=64), 5).csr_mask == 0x03
        assert plan_node_layout(spec_3x3(c=16), 5).csr_mask == 0x01


class TestLoadFilters:
    def test_filters_readable_back(self):
        spec = spec_3x3(m=2)
        layout = plan_node_layout(spec, 2)
        cmem = CMem()
        rng = np.random.default_rng(0)
        weights = rng.integers(-128, 128, size=(2, 256, 3, 3))
        load_filters_into_cmem(cmem, layout, weights)
        for entry in layout.entries:
            vec = read_transposed(
                cmem.slice(entry.slice_index).array, entry.row, 256, 8, signed=True
            )
            assert np.array_equal(
                vec, weights[entry.filter_index, :, entry.fr, entry.fs]
            )


class TestSplitFilters:
    def test_even_split(self):
        assert split_filters_across_nodes(10, 5) == [
            (0, 2), (2, 2), (4, 2), (6, 2), (8, 2)
        ]

    def test_remainder_to_early_nodes(self):
        ranges = split_filters_across_nodes(10, 3)
        assert ranges == [(0, 4), (4, 3), (7, 3)]

    def test_covers_all_filters(self):
        for m in (1, 7, 64, 513):
            for nodes in (1, 3, 8):
                ranges = split_filters_across_nodes(m, nodes)
                assert sum(c for _, c in ranges) == m
                assert ranges[-1][0] + ranges[-1][1] == m
