"""A bank-state DRAM timing model.

The 2 GB many-core DRAM is uniformly divided into 32 channels, each wired
to one LLC tile (Table 1).  Timing follows the classic three-phase model:
row activate (tRCD), column access (tCAS), and precharge (tRP) on a row
miss; an open-row hit pays only tCAS.  Numbers are in core cycles at 1 GHz
and default to DDR4-2400-like values.

DRAM energy is billed in one place, per byte moved plus background power
(:class:`repro.energy.power.EnergyModel` at
``ChipConstants.dram_access_pj_per_byte`` and ``dram_background_w``);
this model counts accesses and row hits only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import DRAMError
from repro.riscv.memory import DRAM_BASE, DRAM_CHANNELS, DRAM_END
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.telemetry.hooks import publish_stats


@dataclass(frozen=True)
class DRAMConfig:
    channels: int = DRAM_CHANNELS
    banks_per_channel: int = 8
    row_bytes: int = 2048
    trcd: int = 15  # activate -> column command
    tcas: int = 15  # column command -> data
    trp: int = 15   # precharge
    tburst: int = 4  # data burst (64 B line)
    line_bytes: int = 64


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class DRAMController:
    """All 32 channels of the many-core DRAM behind one interface."""

    def __init__(
        self,
        config: DRAMConfig = DRAMConfig(),
        telemetry: Optional[TelemetrySink] = None,
    ) -> None:
        self.config = config
        self.stats = DRAMStats()
        self._telemetry = telemetry if telemetry is not None else _current_telemetry()
        # (channel, bank) -> open row id, or -1 when precharged.
        self._open_row: Dict[Tuple[int, int], int] = {}
        # (channel, bank) -> busy-until time.
        self._bank_free: Dict[Tuple[int, int], int] = {}
        self._channel_span = (DRAM_END - DRAM_BASE) // config.channels

    # -- address mapping -----------------------------------------------------

    def locate(self, addr: int) -> Tuple[int, int, int]:
        """Map an address to (channel, bank, row)."""
        if not DRAM_BASE <= addr < DRAM_END:
            raise DRAMError(f"{addr:#010x} outside DRAM")
        offset = addr - DRAM_BASE
        channel = offset // self._channel_span
        within = offset % self._channel_span
        row_id = within // self.config.row_bytes
        bank = row_id % self.config.banks_per_channel
        row = row_id // self.config.banks_per_channel
        return channel, bank, row

    # -- timing ----------------------------------------------------------------

    def access_latency(self, addr: int, is_write: bool, time: int) -> int:
        """Latency (cycles) of one line access starting at ``time``.

        Updates bank state; subsequent accesses observe the open row.
        """
        cfg = self.config
        channel, bank, row = self.locate(addr)
        key = (channel, bank)
        start = max(time, self._bank_free.get(key, 0))
        open_row = self._open_row.get(key, -1)
        if open_row == row:
            self.stats.row_hits += 1
            latency = cfg.tcas + cfg.tburst
        else:
            self.stats.row_misses += 1
            precharge = cfg.trp if open_row != -1 else 0
            latency = precharge + cfg.trcd + cfg.tcas + cfg.tburst
            self._open_row[key] = row
        self._bank_free[key] = start + latency
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if self._telemetry.enabled:
            # One span per access on the bank's track; ``start`` is gated
            # on the bank's busy-until time, so each track stays monotone.
            assert self._telemetry.trace is not None
            self._telemetry.trace.complete(
                f"dram/ch{channel}/bank{bank}",
                "write" if is_write else "read",
                start,
                latency,
                args={"row": row, "hit": open_row == row},
            )
        return (start - time) + latency

    def publish_stats(self, prefix: str = "dram") -> None:
        """Publish access and row counters into the metrics registry."""
        sink = self._telemetry
        if not sink.enabled:
            return
        assert sink.registry is not None
        publish_stats(sink, prefix, self.stats)
        sink.registry.gauge(f"{prefix}/row_hit_rate").set(self.stats.row_hit_rate)
