"""Area model vs the paper's Fig. 10 and Table 4 figures."""

import pytest

from repro.energy.area import area_breakdown, node_area_mm2
from repro.energy.constants import ChipConstants
from repro.mapping.capacity import CapacityModel
from repro.sim.config import SimConfig


class TestChipArea:
    def test_total_near_28mm2(self):
        assert area_breakdown(SimConfig()).total == pytest.approx(28.0, rel=0.05)

    def test_cmem_dominates_at_65_percent(self):
        fr = area_breakdown(SimConfig()).fractions()
        assert fr["cmem"] == pytest.approx(0.65, abs=0.03)

    def test_paper_fractions(self):
        fr = area_breakdown(SimConfig()).fractions()
        assert fr["core"] == pytest.approx(0.11, abs=0.02)
        assert fr["local_mem"] == pytest.approx(0.10, abs=0.02)
        assert fr["noc"] == pytest.approx(0.09, abs=0.02)
        assert fr["llc"] == pytest.approx(0.05, abs=0.02)

    def test_fractions_sum_to_one(self):
        assert sum(area_breakdown(SimConfig()).fractions().values()) == pytest.approx(1.0)


class TestNodeArea:
    def test_node_area_near_paper(self):
        """Table 4: 0.114 mm^2 per MAICC node."""
        assert node_area_mm2(SimConfig()) == pytest.approx(0.114, abs=0.01)

    def test_cmem_area_from_40nm_scaling(self):
        c = ChipConstants()
        raw_40nm = 0.014 + 7 * 0.023
        assert c.cmem_area_mm2_per_node(CapacityModel()) == pytest.approx(
            raw_40nm * (28 / 40) ** 2
        )
        # Slice area scales with the row count.
        half = c.cmem_area_mm2_per_node(CapacityModel(rows=32))
        assert half == pytest.approx(raw_40nm / 2 * (28 / 40) ** 2)
