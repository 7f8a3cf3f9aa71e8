"""Table 2 cycle costs of the CMem ISA extension."""

import pytest

from repro.cmem.isa import CMemOp, cmem_op_cycles
from repro.errors import CMemError


class TestTable2:
    """The exact cycle counts of the paper's Table 2."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_mac_is_n_squared(self, n):
        assert cmem_op_cycles(CMemOp.MAC_C, n) == n * n

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_move_is_n(self, n):
        assert cmem_op_cycles(CMemOp.MOVE_C, n) == n

    def test_setrow_single_cycle(self):
        assert cmem_op_cycles(CMemOp.SETROW_C) == 1

    def test_shiftrow_read_plus_write(self):
        assert cmem_op_cycles(CMemOp.SHIFTROW_C) == 2

    def test_remote_rows_single_cycle_occupancy(self):
        assert cmem_op_cycles(CMemOp.LOADROW_RC) == 1
        assert cmem_op_cycles(CMemOp.STOREROW_RC) == 1

    def test_invalid_width(self):
        with pytest.raises(CMemError):
            cmem_op_cycles(CMemOp.MAC_C, 0)


class TestWordGranularityBound:
    """Operands are bounded by the 32-bit word granularity of a CMem row."""

    def test_max_width_accepted(self):
        from repro.cmem.isa import MAX_OPERAND_BITS

        assert MAX_OPERAND_BITS == 32
        assert cmem_op_cycles(CMemOp.MAC_C, 32) == 1024
        assert cmem_op_cycles(CMemOp.MOVE_C, 32) == 32

    @pytest.mark.parametrize("n", [33, 64, 256])
    def test_over_width_rejected(self, n):
        for op in (CMemOp.MAC_C, CMemOp.MOVE_C):
            with pytest.raises(CMemError, match="word granularity"):
                cmem_op_cycles(op, n)

    def test_boundary_is_exclusive(self):
        cmem_op_cycles(CMemOp.MAC_C, 32)  # 32 is legal
        with pytest.raises(CMemError):
            cmem_op_cycles(CMemOp.MAC_C, 33)  # 33 is not
