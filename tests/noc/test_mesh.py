"""Mesh NoC latency, contention, and energy accounting."""

import pytest

from repro.errors import NoCError
from repro.noc.mesh import MeshConfig, MeshNoC
from repro.noc.packet import FLIT_BITS, Packet, PacketKind


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
        noc = MeshNoC()
        # 3 hops * 2 cycles + (5 - 1) serialization.
        assert noc.latency((0, 0), (3, 0), flits=5) == 10

    def test_zero_hop(self):
        noc = MeshNoC()
        assert noc.latency((2, 2), (2, 2), flits=1) == 0

    def test_invalid_flits(self):
        with pytest.raises(NoCError):
            MeshNoC().latency((0, 0), (1, 0), flits=0)

    def test_accounting(self):
        noc = MeshNoC()
        noc.account((0, 0), (2, 0), flits=5)
        assert noc.stats.packets == 1
        assert noc.stats.flit_hops == 10


class TestContention:
    def test_uncontended_send_matches_closed_form(self):
        noc = MeshNoC()
        pkt = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        assert noc.send(pkt, 0) == noc.latency((0, 0), (3, 0), pkt.flits)

    def test_shared_link_serializes(self):
        noc = MeshNoC()
        pkt = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        first = noc.send(pkt, 0)
        second = noc.send(pkt, 0)
        assert second > first

    def test_disjoint_paths_do_not_interact(self):
        noc = MeshNoC()
        a = Packet(src=(0, 0), dst=(3, 0), kind=PacketKind.ROW_TRANSFER)
        b = Packet(src=(0, 5), dst=(3, 5), kind=PacketKind.ROW_TRANSFER)
        t_a = noc.send(a, 0)
        t_b = noc.send(b, 0)
        assert t_a == t_b

    def test_coord_validation(self):
        noc = MeshNoC(MeshConfig(width=4, height=4))
        with pytest.raises(NoCError):
            noc.latency((0, 0), (4, 0), 1)


class TestAvgLatency:
    def test_zero_packets_is_safe(self):
        assert MeshNoC().stats.avg_latency == 0.0

    def test_mean_over_sends(self):
        noc = MeshNoC()
        pkt = Packet(src=(0, 0), dst=(2, 0), kind=PacketKind.REMOTE_STORE)
        noc.send(pkt, 0)
        noc.send(pkt, 0)
        assert noc.stats.avg_latency == noc.stats.total_latency / 2


class TestLinkOccupancy:
    def test_per_link_counters(self):
        noc = MeshNoC()
        pkt = Packet(src=(0, 0), dst=(2, 0), kind=PacketKind.ROW_TRANSFER)
        noc.send(pkt, 0)
        # X-Y path touches exactly the two eastbound links.
        assert set(noc.link_stats) == {
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
        }
        hold = noc.config.router_delay + pkt.flits - 1
        for stats in noc.link_stats.values():
            assert stats.packets == 1
            assert stats.busy_cycles == hold
            assert stats.max_wait == 0

    def test_contention_raises_max_wait_and_queue_depth(self):
        noc = MeshNoC()
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.ROW_TRANSFER)
        assert noc.max_queue_depth == 0
        noc.send(pkt, 0)
        noc.send(pkt, 0)  # blocked behind the first packet's tail
        link = noc.link_stats[((0, 0), (1, 0))]
        assert link.packets == 2
        assert link.max_wait > 0
        assert noc.max_queue_depth == link.max_wait

    def test_busiest_link(self):
        noc = MeshNoC()
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
        noc = MeshNoC()
        a = Packet(src=(2, 2), dst=(3, 2), kind=PacketKind.REMOTE_STORE)
        b = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE)
        noc.send(a, 0)
        noc.send(b, 0)
        link, _ = noc.busiest_link()
        assert link == ((0, 0), (1, 0))
