"""The partitioned global address space of Table 1 and a node's memory.

========================== ============================ =====================
Region                     Range                        Size
========================== ============================ =====================
local data memory          0x00000000 - 0x00000FFF      4 KB
CMem slice 0 (vertical)    0x00001000 - 0x000017FF      2 KB
remote core address        0x40000000 - 0x7FFFFFFF      1 GB (16 KB / core)
many-core DRAM             0x80000000 - 0xFFFFFFFF      2 GB, 32 channels
========================== ============================ =====================

Remote-core addresses encode ``01xxxxxx_xxyyyyyy_yyoooooo_oooooooo``: an
8-bit x position, an 8-bit y position, and a 14-bit (16 KB) offset into
that core's local space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable, Optional

from repro.cmem.slice import TransposeBuffer
from repro.errors import AlignmentError, MemoryMapError

LOCAL_DMEM_BASE = 0x0000_0000
LOCAL_DMEM_SIZE = 4 * 1024
SLICE0_BASE = 0x0000_1000
SLICE0_SIZE = 2 * 1024
REMOTE_BASE = 0x4000_0000
REMOTE_END = 0x8000_0000
DRAM_BASE = 0x8000_0000
DRAM_END = 0x1_0000_0000
DRAM_CHANNELS = 32
REMOTE_OFFSET_BITS = 14
REMOTE_CORE_SPAN = 1 << REMOTE_OFFSET_BITS  # 16 KB of address per core


@unique
class AddressRegion(Enum):
    LOCAL_DMEM = "local_dmem"
    SLICE0 = "slice0"
    REMOTE_CORE = "remote_core"
    DRAM = "dram"


@dataclass(frozen=True)
class MemoryMap:
    """Classifier over the Table 1 layout."""

    @staticmethod
    def region_of(addr: int) -> AddressRegion:
        if LOCAL_DMEM_BASE <= addr < LOCAL_DMEM_BASE + LOCAL_DMEM_SIZE:
            return AddressRegion.LOCAL_DMEM
        if SLICE0_BASE <= addr < SLICE0_BASE + SLICE0_SIZE:
            return AddressRegion.SLICE0
        if REMOTE_BASE <= addr < REMOTE_END:
            return AddressRegion.REMOTE_CORE
        if DRAM_BASE <= addr < DRAM_END:
            return AddressRegion.DRAM
        raise MemoryMapError(f"address {addr:#010x} is unmapped")


def encode_remote_address(x: int, y: int, offset: int) -> int:
    """Build a remote-core address from mesh coordinates and a local offset."""
    if not 0 <= x < 256 or not 0 <= y < 256:
        raise MemoryMapError(f"mesh coordinates ({x}, {y}) out of range")
    if not 0 <= offset < REMOTE_CORE_SPAN:
        raise MemoryMapError(f"remote offset {offset:#x} exceeds 16 KB")
    return REMOTE_BASE | (x << (REMOTE_OFFSET_BITS + 8)) | (y << REMOTE_OFFSET_BITS) | offset


# A remote/DRAM access handler: (is_store, addr, size, value) -> loaded value.
RemoteHandler = Callable[[bool, int, int, int], int]


class NodeMemory:
    """One node's view of the address space.

    Local data memory and slice-0 accesses are serviced locally; remote-core
    and DRAM accesses are delegated to handlers installed by the chip model
    (or a stub in single-node tests).
    """

    def __init__(
        self,
        slice0: Optional[TransposeBuffer] = None,
        remote_handler: Optional[RemoteHandler] = None,
        dram_handler: Optional[RemoteHandler] = None,
    ) -> None:
        self.dmem = bytearray(LOCAL_DMEM_SIZE)
        self.slice0 = slice0
        self.remote_handler = remote_handler
        self.dram_handler = dram_handler

    # -- byte-level local access ---------------------------------------------

    def _local_load_byte(self, addr: int) -> int:
        region = MemoryMap.region_of(addr)
        if region is AddressRegion.LOCAL_DMEM:
            return self.dmem[addr - LOCAL_DMEM_BASE]
        if region is AddressRegion.SLICE0:
            if self.slice0 is None:
                raise MemoryMapError("no CMem slice 0 attached to this node")
            return self.slice0.load_byte(addr - SLICE0_BASE)
        raise MemoryMapError(f"{addr:#010x} is not local")

    def _local_store_byte(self, addr: int, value: int) -> None:
        region = MemoryMap.region_of(addr)
        if region is AddressRegion.LOCAL_DMEM:
            self.dmem[addr - LOCAL_DMEM_BASE] = value & 0xFF
        elif region is AddressRegion.SLICE0:
            if self.slice0 is None:
                raise MemoryMapError("no CMem slice 0 attached to this node")
            self.slice0.store_byte(addr - SLICE0_BASE, value & 0xFF)
        else:
            raise MemoryMapError(f"{addr:#010x} is not local")

    # -- sized access -----------------------------------------------------------

    @staticmethod
    def _check_alignment(addr: int, size: int) -> None:
        if addr % size:
            raise AlignmentError(f"{size}-byte access to misaligned {addr:#010x}")

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes (little-endian, zero-extended)."""
        self._check_alignment(addr, size)
        region = MemoryMap.region_of(addr)
        if region in (AddressRegion.LOCAL_DMEM, AddressRegion.SLICE0):
            value = 0
            for i in range(size):
                value |= self._local_load_byte(addr + i) << (8 * i)
            return value
        if region is AddressRegion.REMOTE_CORE:
            if self.remote_handler is None:
                raise MemoryMapError("remote access with no NoC attached")
            return self.remote_handler(False, addr, size, 0)
        if self.dram_handler is None:
            raise MemoryMapError("DRAM access with no memory system attached")
        return self.dram_handler(False, addr, size, 0)

    def store(self, addr: int, size: int, value: int) -> None:
        """Store the low ``size`` bytes of ``value`` (little-endian)."""
        self._check_alignment(addr, size)
        region = MemoryMap.region_of(addr)
        if region in (AddressRegion.LOCAL_DMEM, AddressRegion.SLICE0):
            for i in range(size):
                self._local_store_byte(addr + i, (value >> (8 * i)) & 0xFF)
        elif region is AddressRegion.REMOTE_CORE:
            if self.remote_handler is None:
                raise MemoryMapError("remote access with no NoC attached")
            self.remote_handler(True, addr, size, value)
        else:
            if self.dram_handler is None:
                raise MemoryMapError("DRAM access with no memory system attached")
            self.dram_handler(True, addr, size, value)
