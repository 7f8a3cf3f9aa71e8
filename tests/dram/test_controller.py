"""DRAM timing and channel striping."""

import pytest

from repro.dram.controller import DRAMController
from repro.errors import DRAMError
from repro.riscv.memory import DRAM_BASE


class TestAddressMapping:
    def test_channel_striping(self):
        dram = DRAMController()
        span = (1 << 31) // 32
        assert dram.locate(DRAM_BASE)[0] == 0
        assert dram.locate(DRAM_BASE + span)[0] == 1
        assert dram.locate(DRAM_BASE + 31 * span)[0] == 31

    def test_bank_interleaving_by_row(self):
        dram = DRAMController()
        cfg = dram.config
        _, bank0, _ = dram.locate(DRAM_BASE)
        _, bank1, _ = dram.locate(DRAM_BASE + cfg.row_bytes)
        assert bank1 == (bank0 + 1) % cfg.banks_per_channel

    def test_out_of_range(self):
        with pytest.raises(DRAMError):
            DRAMController().locate(0x1000)


class TestTiming:
    def test_first_access_pays_activate(self):
        dram = DRAMController()
        cfg = dram.config
        latency = dram.access_latency(DRAM_BASE, False, 0)
        assert latency == cfg.trcd + cfg.tcas + cfg.tburst

    def test_row_hit_is_cheaper(self):
        dram = DRAMController()
        cfg = dram.config
        dram.access_latency(DRAM_BASE, False, 0)
        hit = dram.access_latency(DRAM_BASE + 64, False, 100)
        assert hit == cfg.tcas + cfg.tburst
        assert dram.stats.row_hits == 1

    def test_row_conflict_pays_precharge(self):
        dram = DRAMController()
        cfg = dram.config
        dram.access_latency(DRAM_BASE, False, 0)
        conflict_addr = DRAM_BASE + cfg.row_bytes * cfg.banks_per_channel
        latency = dram.access_latency(conflict_addr, False, 1000)
        assert latency == cfg.trp + cfg.trcd + cfg.tcas + cfg.tburst

    def test_bank_busy_queues_requests(self):
        dram = DRAMController()
        first = dram.access_latency(DRAM_BASE, False, 0)
        second = dram.access_latency(DRAM_BASE + 64, False, 0)
        # Second request waits for the bank, so total observed latency from
        # t=0 exceeds a bare row hit.
        assert second > dram.config.tcas

    def test_reads_and_writes_counted(self):
        dram = DRAMController()
        dram.access_latency(DRAM_BASE, False, 0)
        dram.access_latency(DRAM_BASE, True, 100)
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1

    def test_hit_rate(self):
        dram = DRAMController()
        dram.access_latency(DRAM_BASE, False, 0)
        dram.access_latency(DRAM_BASE, False, 100)
        assert dram.stats.row_hit_rate == pytest.approx(0.5)
