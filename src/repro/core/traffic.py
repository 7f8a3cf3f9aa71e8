"""A placed segment's steady-state NoC wave, and its replay on the mesh.

Quantifies what the zig-zag mapping buys (Fig. 7(c)).  One steady-state
iteration wave of a segment is, per layer, the ifmap vector rippling
down the DC -> core chain (LoadRow/StoreRow.RC row packets, ``n_bits``
rows per 256-channel sub-vector) and then one scalar ofmap store from
each computing core to the next layer's DC.  :func:`segment_wave`
defines that wave once: :func:`simulate_segment_traffic` replays it on
the contention-aware mesh model (the wave's completion time and the
flit-hop count that drives NoC energy), and
:func:`repro.analysis.noc_check.plan_route_flows` prices the same
streams as the ``NOC7xx`` route set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.cmem.geometry import COLS
from repro.mapping.placement import NodePlacement
from repro.mapping.segmentation import Segment
from repro.noc.mesh import MeshNoC
from repro.noc.packet import Packet, PacketKind

if TYPE_CHECKING:
    from repro.sim.config import SimConfig


@dataclass(frozen=True)
class TrafficResult:
    """One iteration wave's communication cost."""

    completion_cycles: int
    packets: int
    flit_hops: int


@dataclass(frozen=True)
class WaveStream:
    """``count`` back-to-back packets of one kind between two tiles.

    ``name`` is ``<layer>/chain<hop>`` for a chain hop and
    ``<layer>/ofmap<core>`` for an ofmap store.
    """

    name: str
    packet: Packet
    count: int

    @property
    def flits(self) -> int:
        return self.count * self.packet.flits


#: One layer's share of a wave: its chain hops in order, then its stores.
LayerWave = Tuple[List[WaveStream], List[WaveStream]]


def segment_wave(segment: Segment, placement: NodePlacement) -> List[LayerWave]:
    """The steady-state wave of a placed segment, layer by layer."""
    wave: List[LayerWave] = []
    indices = [spec.index for spec in segment.layers]
    for pos, spec in enumerate(segment.layers):
        chain = [placement.dc[spec.index]] + placement.computing[spec.index]
        rows = spec.n_bits * max(1, math.ceil(spec.c / COLS))
        hops = [
            WaveStream(
                f"{spec.name}/chain{hop}",
                Packet(src=src, dst=dst, kind=PacketKind.ROW_TRANSFER),
                rows,
            )
            for hop, (src, dst) in enumerate(zip(chain, chain[1:]))
        ]
        stores: List[WaveStream] = []
        if pos + 1 < len(segment.layers):
            target = placement.dc[indices[pos + 1]]
            stores = [
                WaveStream(
                    f"{spec.name}/ofmap{c}",
                    Packet(src=core, dst=target, kind=PacketKind.REMOTE_STORE),
                    1,
                )
                for c, core in enumerate(placement.computing[spec.index])
            ]
        wave.append((hops, stores))
    return wave


def simulate_segment_traffic(
    segment: Segment, placement: NodePlacement, config: SimConfig
) -> TrafficResult:
    """Replay one iteration wave of a placed segment on ``config``'s mesh,
    at the hop delay the tiers charge (``config.params.hop_latency``)."""
    chip = config.chip
    noc = MeshNoC(chip.mesh_width, chip.mesh_height, config.params.hop_latency)
    completion = 0
    for hops, stores in segment_wave(segment, placement):
        # Ifmap vector rows ripple down the chain: one back-to-back
        # stream per link, collapsed to O(hops) by ``send_stream``.
        t = 0
        for stream in hops:
            t = noc.send_stream(stream.packet, t, stream.count)
            completion = max(completion, t)
        for stream in stores:
            arrival = noc.send_stream(stream.packet, 0, stream.count)
            completion = max(completion, arrival)
    return TrafficResult(
        completion_cycles=completion,
        packets=noc.stats.packets,
        flit_hops=noc.stats.flit_hops,
    )
