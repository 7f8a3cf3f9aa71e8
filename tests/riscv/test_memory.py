"""Table 1 address map and node memory behaviour."""

import pytest

from repro.errors import AlignmentError, MemoryMapError
from repro.riscv.memory import (
    AddressRegion,
    DRAM_BASE,
    MemoryMap,
    NodeMemory,
    REMOTE_BASE,
    SLICE0_BASE,
    encode_remote_address,
)
from repro.cmem.slice import TransposeBuffer
from repro.dram.controller import DRAMController


class TestTable1Regions:
    """The exact ranges of Table 1."""

    def test_local_dmem(self):
        assert MemoryMap.region_of(0x0000_0000) is AddressRegion.LOCAL_DMEM
        assert MemoryMap.region_of(0x0000_0FFF) is AddressRegion.LOCAL_DMEM

    def test_slice0_window(self):
        assert MemoryMap.region_of(0x0000_1000) is AddressRegion.SLICE0
        assert MemoryMap.region_of(0x0000_17FF) is AddressRegion.SLICE0

    def test_hole_after_slice0(self):
        with pytest.raises(MemoryMapError):
            MemoryMap.region_of(0x0000_1800)

    def test_remote_window(self):
        assert MemoryMap.region_of(0x4000_0000) is AddressRegion.REMOTE_CORE
        assert MemoryMap.region_of(0x7FFF_FFFF) is AddressRegion.REMOTE_CORE

    def test_dram_window(self):
        assert MemoryMap.region_of(0x8000_0000) is AddressRegion.DRAM
        assert MemoryMap.region_of(0xFFFF_FFFF) is AddressRegion.DRAM


class TestRemoteEncoding:
    """01xxxxxx_xxyyyyyy_yyoooooo_oooooooo — 8-bit x, 8-bit y, 14-bit offset."""

    def test_roundtrip(self):
        addr = encode_remote_address(5, 9, 0x123)
        assert (addr >> 22 & 0xFF, addr >> 14 & 0xFF, addr & 0x3FFF) == (5, 9, 0x123)
        assert MemoryMap.region_of(addr) is AddressRegion.REMOTE_CORE

    def test_sixteen_kb_per_core(self):
        a0 = encode_remote_address(0, 0, 0)
        a1 = encode_remote_address(0, 1, 0)
        assert a1 - a0 == 16 * 1024

    def test_bit_pattern(self):
        addr = encode_remote_address(0xFF, 0, 0)
        assert addr >> 22 == 0b01_11111111

    def test_bounds(self):
        with pytest.raises(MemoryMapError):
            encode_remote_address(256, 0, 0)
        with pytest.raises(MemoryMapError):
            encode_remote_address(0, 0, 1 << 14)


class TestDRAMStriping:
    """Table 1's 2 GB DRAM window is striped over 32 equal channels; the
    DRAM controller is the one record of that rule."""

    def test_32_channels(self):
        dram = DRAMController()
        assert dram.locate(DRAM_BASE)[0] == 0
        assert dram.locate(0xFFFF_FFFF)[0] == 31

    def test_uniform_division(self):
        span = (1 << 31) // 32
        dram = DRAMController()
        assert dram.locate(DRAM_BASE + span)[0] == 1
        assert dram.locate(DRAM_BASE + span - 1)[0] == 0


class TestNodeMemory:
    def test_dmem_roundtrip(self):
        mem = NodeMemory()
        mem.store(0x10, 4, 0xCAFEBABE)
        assert mem.load(0x10, 4) == 0xCAFEBABE

    def test_alignment_enforced(self):
        mem = NodeMemory()
        with pytest.raises(AlignmentError):
            mem.load(0x2, 4)
        with pytest.raises(AlignmentError):
            mem.store(0x1, 2, 0)

    def test_slice0_window_maps_to_transpose_buffer(self):
        slice0 = TransposeBuffer()
        mem = NodeMemory(slice0=slice0)
        mem.store(SLICE0_BASE + 3, 1, 0x77)
        assert slice0.load_byte(3) == 0x77

    def test_slice0_without_cmem(self):
        mem = NodeMemory()
        with pytest.raises(MemoryMapError):
            mem.load(SLICE0_BASE, 1)

    def test_remote_handler_dispatch(self):
        calls = []

        def handler(is_store, addr, size, value):
            calls.append((is_store, addr, size, value))
            return 0x55

        mem = NodeMemory(remote_handler=handler)
        assert mem.load(REMOTE_BASE + 4, 4) == 0x55
        mem.store(REMOTE_BASE + 8, 4, 7)
        assert calls == [(False, REMOTE_BASE + 4, 4, 0), (True, REMOTE_BASE + 8, 4, 7)]

    def test_remote_without_handler(self):
        with pytest.raises(MemoryMapError):
            NodeMemory().load(REMOTE_BASE, 4)

    def test_dram_handler_dispatch(self):
        mem = NodeMemory(dram_handler=lambda s, a, sz, v: 0xAB)
        assert mem.load(DRAM_BASE, 4) == 0xAB

    def test_dram_without_handler(self):
        with pytest.raises(MemoryMapError):
            NodeMemory().store(DRAM_BASE, 4, 1)
