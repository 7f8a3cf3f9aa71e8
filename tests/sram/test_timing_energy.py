"""The SRAM energy accumulator."""

import pytest

from repro.sram.energy import EnergyAccumulator, SRAMEnergy


class TestEnergyAccumulator:
    def test_paper_constants(self):
        energy = SRAMEnergy()
        assert energy.vertical_write_pj == 4.75
        assert energy.move_pj == 52.75
        assert energy.mac_pj == 28.25
        assert energy.remote_row_pj == 53.01

    def test_charging_by_op(self):
        acc = EnergyAccumulator()
        acc.charge("mac", 2)
        acc.charge("move")
        assert acc.total_pj == pytest.approx(2 * 28.25 + 52.75)
        assert acc.by_op["mac"] == pytest.approx(56.5)

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            EnergyAccumulator().charge("teleport")
