"""The mesh NoC: contention-aware link occupancy and traffic accounting.

Each directed link has a busy-until time; a packet acquires its X-Y path
links in order, modeling head-of-line contention without per-flit
simulation.  Deterministic and cheap, adequate for the traffic the
execution framework generates (neighbour-to-neighbour streams by
construction of the zig-zag mapping).  The mesh size and the per-hop
delay are the machine's (``ChipConfig`` and ``TimingParams.hop_latency``),
handed in by the caller that holds the ``SimConfig``, so this replay and
the tiers charge one hop.

Energy is the energy model's: it bills flit-hops at
``ChipConstants.noc_flit_hop_pj`` (5.4 pJ) plus ``noc_static_w`` (2.20 W
for the whole 16x16 mesh; paper Sec. 5, measured with dsent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import NoCError
from repro.noc.packet import Packet
from repro.noc.router import xy_route
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.telemetry.hooks import publish_stats

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


@dataclass
class NoCStats:
    """Traffic counters for energy/thermal reporting."""

    packets: int = 0
    flit_hops: int = 0
    total_latency: int = 0

    @property
    def avg_latency(self) -> float:
        """Mean packet latency in cycles; 0.0 before any traffic."""
        return self.total_latency / self.packets if self.packets else 0.0


@dataclass
class LinkStats:
    """Occupancy of one directed link, derived from its busy-until time."""

    packets: int = 0
    busy_cycles: int = 0  # cycles the link was held by packet heads/bodies
    max_wait: int = 0  # worst head-of-line blocking a packet saw here


class MeshNoC:
    """A ``width`` x ``height`` 2D-mesh interconnect with X-Y routing.

    Its clock counts whole cycles, so ``hop_latency`` must be a whole
    number of cycles; a fractional hop raises :class:`NoCError` rather
    than being truncated.
    """

    def __init__(
        self,
        width: int,
        height: int,
        hop_latency: float,
        *,
        telemetry: Optional[TelemetrySink] = None,
    ) -> None:
        if not float(hop_latency).is_integer() or hop_latency < 0:
            raise NoCError(
                f"the mesh clock counts whole cycles; a hop of "
                f"{hop_latency} cycles is not a whole number of them"
            )
        self.width = width
        self.height = height
        self.hop_latency = int(hop_latency)
        self.stats = NoCStats()
        # busy-until time per directed link ((x,y) -> (x',y')).
        self._link_free: Dict[Link, int] = {}
        # Per-link occupancy, populated by contention-aware sends.
        self.link_stats: Dict[Link, LinkStats] = {}
        self._telemetry = telemetry if telemetry is not None else _current_telemetry()

    def send(self, packet: Packet, inject_time: int) -> int:
        """Send a packet at ``inject_time``; returns its arrival time.

        Wormhole-like: the head acquires each link of the X-Y path in order,
        waiting for the link to free; each link is then held for the packet's
        serialization time (``flits`` cycles).
        """
        path = xy_route(packet.src, packet.dst, self.width, self.height)
        flits = packet.flits
        telemetry = self._telemetry
        t = inject_time
        for a, b in zip(path, path[1:]):
            link = (a, b)
            free_at = self._link_free.get(link, 0)
            wait = max(0, free_at - t)
            start = max(t, free_at)
            t = start + self.hop_latency
            self._link_free[link] = t + flits - 1
            occupancy = self.link_stats.get(link)
            if occupancy is None:
                occupancy = self.link_stats[link] = LinkStats()
            occupancy.packets += 1
            occupancy.busy_cycles += self.hop_latency + flits - 1
            if wait > occupancy.max_wait:
                occupancy.max_wait = wait
            if telemetry.enabled:
                assert telemetry.trace is not None
                telemetry.trace.complete(
                    f"noc/{a[0]},{a[1]}->{b[0]},{b[1]}",
                    packet.kind.value,
                    start,
                    self.hop_latency + flits - 1,
                    args={"flits": flits, "wait": wait},
                )
        arrival = t + flits - 1
        self.stats.packets += 1
        self.stats.flit_hops += flits * (len(path) - 1)
        self.stats.total_latency += arrival - inject_time
        return arrival

    def send_stream(self, packet: Packet, inject_time: int, count: int) -> int:
        """Send ``count`` copies of ``packet`` back to back; returns the
        last arrival.

        Identical in every observable (arrival times, link state, link
        and mesh stats) to ``for _ in range(count): t = send(packet, t)``,
        but O(path) instead of O(count * path): because each copy injects
        only when the previous one has fully arrived, copy ``i`` reaches
        every link of the path at or after the time copy ``i-1`` freed it
        (head times are non-decreasing along the path), so copies after
        the first never wait and advance at exactly the zero-load latency.
        Only the first copy can contend — with *prior* traffic — and it
        goes through the full per-link scan.

        Telemetry-enabled sends fall back to the per-packet loop so the
        trace keeps one span per packet per link.
        """
        if count < 1:
            raise NoCError(f"stream needs at least 1 packet, got {count}")
        if count == 1 or self._telemetry.enabled:
            t = inject_time
            for _ in range(count):
                t = self.send(packet, t)
            return t
        arrival = self.send(packet, inject_time)
        path = xy_route(packet.src, packet.dst, self.width, self.height)
        hops = len(path) - 1
        flits = packet.flits
        rd = self.hop_latency
        serialization = flits - 1
        zero_load = hops * rd + serialization
        n = count - 1  # follow-on copies, all at zero-load latency
        last_inject = arrival + (n - 1) * zero_load
        for j, (a, b) in enumerate(zip(path, path[1:])):
            link = (a, b)
            self._link_free[link] = last_inject + (j + 1) * rd + serialization
            occupancy = self.link_stats[link]  # created by the first send
            occupancy.packets += n
            occupancy.busy_cycles += n * (rd + serialization)
            # Follow-on copies never wait, so max_wait is unchanged.
        self.stats.packets += n
        self.stats.flit_hops += n * flits * hops
        self.stats.total_latency += n * zero_load
        return arrival + n * zero_load

    # -- occupancy reporting -----------------------------------------------------

    @property
    def max_queue_depth(self) -> int:
        """Worst head-of-line wait (cycles) any packet saw on any link."""
        if not self.link_stats:
            return 0
        return max(s.max_wait for s in self.link_stats.values())

    def busiest_link(self) -> Optional[Tuple[Link, LinkStats]]:
        """The link that carried the most packets (ties break by coordinate)."""
        if not self.link_stats:
            return None
        link = min(self.link_stats, key=lambda k: (-self.link_stats[k].packets, k))
        return link, self.link_stats[link]

    def publish_stats(self, prefix: str = "noc") -> None:
        """Publish traffic counters plus per-link occupancy into the
        metrics registry (no-op on a disabled sink)."""
        sink = self._telemetry
        if not sink.enabled:
            return
        assert sink.registry is not None
        reg = sink.registry
        publish_stats(sink, prefix, self.stats)
        reg.gauge(f"{prefix}/avg_latency").set(self.stats.avg_latency)
        reg.gauge(f"{prefix}/max_queue_depth").max(self.max_queue_depth)
        for (a, b), link in sorted(self.link_stats.items()):
            leg = f"{prefix}/link/{a[0]},{a[1]}->{b[0]},{b[1]}"
            reg.counter(f"{leg}/packets").add(link.packets)
            reg.counter(f"{leg}/busy_cycles").add(link.busy_cycles)
            reg.gauge(f"{leg}/max_wait").max(link.max_wait)
        busiest = self.busiest_link()
        if busiest is not None:
            reg.gauge(f"{prefix}/busiest_link_packets").max(busiest[1].packets)
