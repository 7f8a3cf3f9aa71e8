"""``MeshNoC.send_stream`` vs the per-packet send loop.

``send_stream`` collapses a back-to-back stream (each copy injected when
the previous one fully arrived — the pattern the traffic replay uses)
into one contended send plus a closed form for the rest.  Its contract
is *exact* equality with the loop: arrival time, per-link busy-until
state, link occupancy counters, and the mesh totals.
"""

import copy

import numpy as np
import pytest

from repro.errors import NoCError
from repro.noc.mesh import MeshNoC
from repro.noc.packet import Packet, PacketKind
from tests.mesh import paper_noc


def loop_reference(noc, packet, inject_time, count):
    t = inject_time
    for _ in range(count):
        t = noc.send(packet, t)
    return t


def assert_same_state(a: MeshNoC, b: MeshNoC) -> None:
    assert a._link_free == b._link_free
    assert set(a.link_stats) == set(b.link_stats)
    for link, stats in a.link_stats.items():
        other = b.link_stats[link]
        assert (stats.packets, stats.busy_cycles, stats.max_wait) == (
            other.packets, other.busy_cycles, other.max_wait
        )
    assert (a.stats.packets, a.stats.flit_hops, a.stats.total_latency) == (
        b.stats.packets, b.stats.flit_hops, b.stats.total_latency
    )


class TestSendStream:
    def test_count_one_equals_single_send(self):
        stream = paper_noc()
        loop = paper_noc()
        pkt = Packet(src=(0, 0), dst=(3, 2), kind=PacketKind.ROW_TRANSFER)
        assert stream.send_stream(pkt, 5, 1) == loop.send(pkt, 5)
        assert_same_state(stream, loop)

    def test_count_must_be_positive(self):
        pkt = Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE)
        with pytest.raises(NoCError):
            paper_noc().send_stream(pkt, 0, 0)

    @pytest.mark.parametrize("count", [2, 8, 33])
    def test_stream_matches_loop_on_clean_mesh(self, count):
        pkt = Packet(src=(1, 1), dst=(6, 4), kind=PacketKind.ROW_TRANSFER)
        stream = paper_noc()
        loop = paper_noc()
        assert stream.send_stream(pkt, 0, count) == loop_reference(
            loop, pkt, 0, count
        )
        assert_same_state(stream, loop)

    def test_stream_contends_with_prior_traffic(self):
        # Dirty the shared links first so the stream's head has to wait;
        # follow-on copies must still collapse exactly.
        prior = Packet(src=(0, 0), dst=(5, 0), kind=PacketKind.ROW_TRANSFER)
        pkt = Packet(src=(0, 0), dst=(5, 3), kind=PacketKind.ROW_TRANSFER)
        stream = paper_noc()
        loop = paper_noc()
        stream.send(prior, 0)
        loop.send(prior, 0)
        assert stream.send_stream(pkt, 0, 6) == loop_reference(loop, pkt, 0, 6)
        assert_same_state(stream, loop)

    def test_randomized_differential(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            rd = int(rng.integers(1, 4))
            stream = MeshNoC(16, 16, rd)
            loop = MeshNoC(16, 16, rd)
            # Prior traffic dirties random links on both meshes equally.
            for _ in range(int(rng.integers(0, 4))):
                p = Packet(
                    src=(int(rng.integers(0, 8)), int(rng.integers(0, 8))),
                    dst=(int(rng.integers(0, 8)), int(rng.integers(0, 8))),
                    kind=PacketKind.ROW_TRANSFER,
                )
                if p.src == p.dst:
                    continue
                t0 = int(rng.integers(0, 20))
                stream.send(p, t0)
                loop.send(p, t0)
            pkt = Packet(
                src=(int(rng.integers(0, 8)), int(rng.integers(0, 8))),
                dst=(int(rng.integers(0, 8)), int(rng.integers(0, 8))),
                kind=PacketKind.ROW_TRANSFER,
            )
            if pkt.src == pkt.dst:
                continue
            count = int(rng.integers(1, 30))
            inject = int(rng.integers(0, 10))
            snapshot = copy.deepcopy(loop)
            got = stream.send_stream(pkt, inject, count)
            want = loop_reference(snapshot, pkt, inject, count)
            assert got == want, f"trial {trial}"
            assert_same_state(stream, snapshot)

    def test_telemetry_enabled_falls_back_to_loop(self):
        from repro import telemetry

        sink = telemetry.Telemetry()
        pkt = Packet(src=(0, 0), dst=(4, 1), kind=PacketKind.ROW_TRANSFER)
        with telemetry.use(sink):
            traced = paper_noc(telemetry=sink)
            arrival = traced.send_stream(pkt, 0, 5)
        plain = paper_noc()
        assert arrival == plain.send_stream(pkt, 0, 5)
        # One span per (packet, link): 5 packets x 5 hops.
        spans = [e for e in sink.trace.events if e.name == pkt.kind.value]
        assert len(spans) == 5 * 5
