"""The SRAM energy accumulator."""

import pytest

from repro.sram.energy import OP_ENERGY_PJ, EnergyAccumulator


class TestEnergyAccumulator:
    def test_paper_constants(self):
        assert OP_ENERGY_PJ["vertical_write"] == 4.75
        assert OP_ENERGY_PJ["move"] == 52.75
        assert OP_ENERGY_PJ["mac"] == 28.25
        assert OP_ENERGY_PJ["remote_row"] == 53.01
        # Plain row accesses are estimated at the vertical-write cost.
        assert OP_ENERGY_PJ["read_row"] == OP_ENERGY_PJ["write_row"] == 4.75

    def test_charging_by_op(self):
        acc = EnergyAccumulator()
        acc.charge("mac", 2)
        acc.charge("move")
        assert acc.total_pj == pytest.approx(2 * 28.25 + 52.75)
        assert acc.by_op["mac"] == pytest.approx(56.5)

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            EnergyAccumulator().charge("teleport")
