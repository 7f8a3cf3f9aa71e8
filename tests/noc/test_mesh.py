"""Mesh NoC latency, contention, and energy accounting."""

import pytest

from repro.errors import NoCError
from repro.noc.mesh import MeshNoC
from repro.noc.packet import FLIT_BITS, Packet, PacketKind
from tests.mesh import paper_noc


class TestPackets:
    def test_scalar_remote_store_is_two_flits(self):
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE)
        assert pkt.flits == 2  # head + 32-bit payload

    def test_row_transfer_is_five_flits(self):
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.ROW_TRANSFER)
        assert pkt.flits == 1 + 256 // FLIT_BITS

    def test_load_request_is_head_only(self):
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_LOAD_REQ)
        assert pkt.flits == 1

    def test_custom_payload(self):
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE,
                     payload_bits=512)
        assert pkt.flits == 9


class TestZeroLoadLatency:
    def test_formula(self):
        noc = paper_noc()
        pkt = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        # 3 hops * 2 cycles + (5 - 1) serialization.
        assert noc.send(pkt, 0) == 10

    def test_zero_hop(self):
        noc = paper_noc()
        pkt = Packet(src=(2, 2), dst=(2, 2), kind=PacketKind.REMOTE_LOAD_REQ)
        assert noc.send(pkt, 0) == 0

    def test_accounting(self):
        noc = paper_noc()
        noc.send(Packet(src=(0, 0), dst=(2, 0), kind=PacketKind.ROW_TRANSFER), 0)
        assert noc.stats.packets == 1
        assert noc.stats.flit_hops == 10

    @pytest.mark.parametrize("hop", [1.5, -1, float("nan")])
    def test_hop_must_be_whole_cycles(self, hop):
        # The busy-until clock is integral: a fractional hop is refused,
        # not truncated.
        with pytest.raises(NoCError):
            MeshNoC(16, 16, hop)

    def test_integral_float_hop_keeps_an_int_clock(self):
        noc = MeshNoC(16, 16, 3.0)
        pkt = Packet(src=(0, 0), dst=(2, 0), kind=PacketKind.REMOTE_STORE)
        arrival = noc.send(pkt, 0)
        assert arrival == 2 * 3 + 1 and isinstance(arrival, int)


class TestContention:
    def test_uncontended_send_matches_closed_form(self):
        noc = paper_noc()
        pkt = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        assert noc.send(pkt, 0) == 3 * noc.hop_latency + pkt.flits - 1

    def test_shared_link_serializes(self):
        noc = paper_noc()
        pkt = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        first = noc.send(pkt, 0)
        second = noc.send(pkt, 0)
        assert second > first

    def test_disjoint_paths_do_not_interact(self):
        noc = paper_noc()
        a = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        b = Packet(src=(0, 5), dst=(3, 5), kind=PacketKind.ROW_TRANSFER)
        t_a = noc.send(a, 0)
        t_b = noc.send(b, 0)
        assert t_a == t_b

    def test_coord_validation(self):
        noc = MeshNoC(4, 4, 2)
        pkt = Packet(src=(0, 0), dst=(4, 0), kind=PacketKind.REMOTE_LOAD_REQ)
        with pytest.raises(NoCError):
            noc.send(pkt, 0)


class TestAvgLatency:
    def test_zero_packets_is_safe(self):
        assert paper_noc().stats.avg_latency == 0.0

    def test_mean_over_sends(self):
        noc = paper_noc()
        pkt = Packet(src=(0, 0), dst=(2, 0), kind=PacketKind.REMOTE_STORE)
        noc.send(pkt, 0)
        noc.send(pkt, 0)
        assert noc.stats.avg_latency == noc.stats.total_latency / 2


class TestLinkOccupancy:
    def test_per_link_counters(self):
        noc = paper_noc()
        pkt = Packet(src=(0, 0), dst=(2, 0), kind=PacketKind.ROW_TRANSFER)
        noc.send(pkt, 0)
        # X-Y path touches exactly the two eastbound links.
        assert set(noc.link_stats) == {
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
        }
        hold = noc.hop_latency + pkt.flits - 1
        for stats in noc.link_stats.values():
            assert stats.packets == 1
            assert stats.busy_cycles == hold
            assert stats.max_wait == 0

    def test_contention_raises_max_wait_and_queue_depth(self):
        noc = paper_noc()
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.ROW_TRANSFER)
        assert noc.max_queue_depth == 0
        noc.send(pkt, 0)
        noc.send(pkt, 0)  # blocked behind the first packet's tail
        link = noc.link_stats[((0, 0), (1, 0))]
        assert link.packets == 2
        assert link.max_wait > 0
        assert noc.max_queue_depth == link.max_wait

    def test_busiest_link(self):
        noc = paper_noc()
        assert noc.busiest_link() is None
        hot = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE)
        cold = Packet(src=(3, 3), dst=(4, 3), kind=PacketKind.REMOTE_STORE)
        noc.send(hot, 0)
        noc.send(hot, 50)
        noc.send(cold, 0)
        link, stats = noc.busiest_link()
        assert link == ((0, 0), (1, 0))
        assert stats.packets == 2

    def test_busiest_link_tie_breaks_by_coordinate(self):
        noc = paper_noc()
        a = Packet(src=(2, 2), dst=(3, 2), kind=PacketKind.REMOTE_STORE)
        b = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE)
        noc.send(a, 0)
        noc.send(b, 0)
        link, _ = noc.busiest_link()
        assert link == ((0, 0), (1, 0))
