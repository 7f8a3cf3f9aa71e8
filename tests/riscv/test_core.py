"""Core facade: CMem wiring, MMIO, remote handlers."""

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.riscv.core import Core
from repro.riscv.memory import encode_remote_address
from tests.readback import read_transposed


class TestCoreCMemIntegration:
    def test_mac_from_assembly(self):
        core = Core()
        a = np.arange(-50, 50)
        b = np.arange(0, 100)
        core.cmem.store_vector_transposed(1, 0, a, 8, signed=True)
        core.cmem.store_vector_transposed(1, 8, b, 8, signed=True)
        core.run("mac.c a0, 1, 0, 8, 8\nhalt")
        assert core.regs.read_signed(10) == int(np.dot(a, b))

    def test_unsigned_mac_opcode(self):
        core = Core()
        a = np.array([200, 200])
        b = np.array([200, 1])
        core.cmem.store_vector_transposed(1, 0, a, 8, signed=False)
        core.cmem.store_vector_transposed(1, 8, b, 8, signed=False)
        core.run("macu.c a0, 1, 0, 8, 8\nhalt")
        assert core.regs.read(10) == 200 * 200 + 200

    def test_setcsr_then_masked_mac(self):
        core = Core()
        a = np.ones(256, dtype=int)
        core.cmem.store_vector_transposed(1, 0, a, 8, signed=True)
        core.cmem.store_vector_transposed(1, 8, a, 8, signed=True)
        core.run("setcsr.c 1, 0x01\nmac.c a0, 1, 0, 8, 8\nhalt")
        assert core.regs.read(10) == 32  # one 32-bit-line lane

    def test_move_between_slices_via_assembly(self):
        core = Core()
        core.cmem.store_vector_transposed(1, 8, [7, 7, 7], 8, signed=True)
        core.run("move.c 1, 8, 4, 16, 8\nhalt")
        out = read_transposed(core.cmem.slice(4).array, 16, 3, 8, signed=True)
        assert out.tolist() == [7, 7, 7]

    def test_slice0_store_then_move_then_mac(self):
        """The full transpose path of Fig. 5 from software."""
        core = Core()
        weights = np.full(16, 2)
        core.cmem.store_vector_transposed(1, 8, weights, 8, signed=True)
        program = ["li t0, 0x1000"]
        for i in range(16):
            program.append(f"li t1, {i + 1}")
            program.append(f"sb t1, {i}(t0)")
        program += [
            "setcsr.c 1, 0x01",
            "move.c 0, 0, 1, 0, 8",
            "mac.c a0, 1, 0, 8, 8",
            "halt",
        ]
        core.run("\n".join(program))
        assert core.regs.read(10) == 2 * sum(range(1, 17))

    def test_storerow_loadrow_between_cores(self):
        """Two Cores wired back-to-back through a row-channel handler."""
        receiver = Core()

        def handler(is_store, addr, size, value):
            if is_store and size == 32:
                row_bits = [(value >> b) & 1 for b in range(256)]
                offset = addr & 0x3FFF
                receiver.cmem.write_row(0, offset % 16, row_bits)
                return 0
            raise AssertionError("unexpected remote op")

        sender = Core(remote_handler=handler)
        sender.cmem.store_vector_transposed(0, 0, [3, -4, 5], 8, signed=True)
        base = encode_remote_address(1, 0, 0)
        program = [f"li t0, {base + r}\nstorerow.rc 0, {r}, t0" for r in range(8)]
        sender.run("\n".join(program) + "\nhalt")
        out = read_transposed(receiver.cmem.slice(0).array, 0, 3, 8, signed=True)
        assert out.tolist() == [3, -4, 5]

    def test_loadrow_without_handler_fails(self):
        core = Core()
        with pytest.raises(DecodeError):
            core.run("li t0, 0x40000000\nloadrow.rc 0, 0, t0\nhalt")
