"""Energy model: op energies and static terms."""

import pytest

from repro.energy.power import EnergyModel, OpCounts
from repro.sim.config import SimConfig


@pytest.fixture
def model():
    return EnergyModel(SimConfig())


class TestDynamicEnergy:
    def test_mac_energy_from_paper_constant(self, model):
        ops = OpCounts(macs=1_000_000)
        breakdown = model.breakdown(ops, seconds=1e-9)  # negligible static
        assert breakdown.cmem == pytest.approx(1_000_000 * 28.25e-12, rel=0.01)

    def test_noc_flit_energy(self, model):
        ops = OpCounts(noc_flit_hops=10 ** 6)
        breakdown = model.breakdown(ops, 1e-9)
        assert breakdown.noc == pytest.approx(10 ** 6 * 5.4e-12, rel=0.01)

    def test_op_mix_is_additive(self, model):
        static = model.breakdown(OpCounts(), 1e-9).cmem
        a = model.breakdown(OpCounts(macs=100), 1e-9).cmem - static
        b = model.breakdown(OpCounts(moves=100), 1e-9).cmem - static
        both = model.breakdown(OpCounts(macs=100, moves=100), 1e-9).cmem - static
        assert both == pytest.approx(a + b)


class TestStaticEnergy:
    def test_static_power_scales_with_time(self, model):
        e1 = model.breakdown(OpCounts(), 0.001).total
        e2 = model.breakdown(OpCounts(), 0.002).total
        assert e2 == pytest.approx(2 * e1)

    def test_noc_static_is_2_2w(self, model):
        breakdown = model.breakdown(OpCounts(), 1.0)
        assert breakdown.noc == pytest.approx(2.20, rel=0.01)

    def test_average_power(self, model):
        ops = OpCounts()
        power = model.average_power_w(ops, 0.005)
        assert power == pytest.approx(model.breakdown(ops, 0.005).total / 0.005)
        with pytest.raises(ValueError):
            model.average_power_w(ops, 0)


class TestOpCounts:
    def test_merge(self):
        a = OpCounts(macs=10, dram_bytes=5)
        b = OpCounts(macs=3, noc_flit_hops=7)
        a.merge(b)
        assert (a.macs, a.dram_bytes, a.noc_flit_hops) == (13, 5, 7)
