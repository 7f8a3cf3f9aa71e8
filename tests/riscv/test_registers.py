"""Register file and name resolution tests."""

import pytest

from repro.errors import DecodeError
from repro.riscv.registers import RegisterFile, reg_index, reg_name


class TestNames:
    def test_x_names(self):
        assert reg_index("x0") == 0
        assert reg_index("x31") == 31

    def test_abi_names(self):
        assert reg_index("zero") == 0
        assert reg_index("ra") == 1
        assert reg_index("sp") == 2
        assert reg_index("a0") == 10
        assert reg_index("s2") == 18
        assert reg_index("t6") == 31
        assert reg_index("fp") == reg_index("s0") == 8

    def test_unknown_name(self):
        with pytest.raises(DecodeError):
            reg_index("x32")

    def test_reg_name_roundtrip(self):
        for i in range(32):
            assert reg_index(reg_name(i)) == i
        with pytest.raises(DecodeError):
            reg_name(32)


class TestRegisterFile:
    def test_x0_hardwired_zero(self):
        regs = RegisterFile()
        regs.write(0, 42)
        assert regs.read(0) == 0

    def test_values_masked_to_32_bits(self):
        regs = RegisterFile()
        regs.write(1, 0x1_2345_6789)
        assert regs.read(1) == 0x2345_6789

    def test_signed_view(self):
        regs = RegisterFile()
        regs.write(2, 0xFFFF_FFFF)
        assert regs.read_signed(2) == -1
        regs.write(2, 0x7FFF_FFFF)
        assert regs.read_signed(2) == 0x7FFF_FFFF
