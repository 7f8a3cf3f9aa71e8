"""The consolidated area model against the paper's published numbers.

Every check uses the ``compare_ref`` convention of :mod:`repro.dse.result`
(the MIT energy-harness style: measured beside ``*_ref`` /
``*_vs_ref`` columns) so the tolerances here and the self-auditing
columns in the DSE artifact share one definition of "vs reference".

References: Fig. 10 area fractions, the Sec. 5 28 mm^2 chip total, and
the Table 4 node row (MAICC 0.114 mm^2 / Neural Cache 0.158 mm^2 at
double the memory / scalar core at core + 20 KB local store).
"""

import pytest

from repro.baselines.neural_cache import NeuralCacheModel
from repro.core.node import table4_workload
from repro.dse.result import (
    PAPER_REF_CHIP_AREA_MM2,
    add_compare_ref,
    compare_ref,
)
from repro.energy.area import area_breakdown, node_area_mm2
from repro.energy.constants import ChipConstants
from repro.sim.config import SimConfig

PAPER_AREA_FRACTIONS = {
    "cmem": 0.65, "core": 0.11, "local_mem": 0.10, "noc": 0.09, "llc": 0.05,
}
PAPER_NODE_AREA_MM2 = 0.114
PAPER_NEURAL_CACHE = {"area_mm2": 0.158, "memory_kb": 40,
                      "energy_j": 4.03e-6}
PAPER_SCALAR_AREA_MM2 = 0.052


class TestChipArea:
    def test_total_within_two_percent_of_paper(self):
        area = area_breakdown(SimConfig())
        assert compare_ref(area.total, PAPER_REF_CHIP_AREA_MM2) == pytest.approx(
            1.0, abs=0.02
        )

    @pytest.mark.parametrize("block,ref", sorted(PAPER_AREA_FRACTIONS.items()))
    def test_block_fractions_match_figure10(self, block, ref):
        fractions = area_breakdown(SimConfig()).fractions()
        assert compare_ref(fractions[block], ref) == pytest.approx(1.0, abs=0.12)

    def test_compare_ref_columns_in_area_row(self):
        """The artifact's self-auditing shape: total + ref + ratio."""
        area = area_breakdown(SimConfig())
        row = {"total_mm2": area.total}
        add_compare_ref(row, "total_mm2", PAPER_REF_CHIP_AREA_MM2)
        assert row["total_mm2_ref"] == PAPER_REF_CHIP_AREA_MM2
        assert row["total_mm2_vs_ref"] == pytest.approx(
            area.total / PAPER_REF_CHIP_AREA_MM2
        )


class TestNodeArea:
    def test_maicc_node_matches_table4(self):
        node = node_area_mm2(SimConfig())
        assert compare_ref(node, PAPER_NODE_AREA_MM2) == pytest.approx(
            1.0, abs=0.01
        )

    def test_scalar_core_matches_table4(self):
        constants = ChipConstants()
        scalar = constants.core_area_mm2 + 20 / 8 * constants.local_mem_area_mm2
        assert compare_ref(scalar, PAPER_SCALAR_AREA_MM2) == pytest.approx(
            1.0, abs=0.10
        )

    def test_neural_cache_baseline_matches_table4(self):
        result = NeuralCacheModel().run(table4_workload())
        assert result.area_mm2 == PAPER_NEURAL_CACHE["area_mm2"]
        assert result.memory_kb == PAPER_NEURAL_CACHE["memory_kb"]
        assert compare_ref(
            result.energy_j, PAPER_NEURAL_CACHE["energy_j"]
        ) == pytest.approx(1.0, abs=0.15)

    def test_node_comparison_ordering(self):
        """The Table 4 shape: scalar < MAICC < Neural Cache in area,
        with Neural Cache holding twice the memory."""
        constants = ChipConstants()
        scalar = constants.core_area_mm2 + 20 / 8 * constants.local_mem_area_mm2
        node = node_area_mm2(SimConfig())
        cache = NeuralCacheModel().run(table4_workload())
        assert scalar < node < cache.area_mm2
        assert cache.memory_kb == 2 * 20
