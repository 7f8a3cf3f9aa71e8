"""2D-mesh network-on-chip model (booksim2 substitute).

X-Y dimension-ordered routing on the chip's mesh (16x16 on the paper's
chip) connecting the host tile, the compute cores, and the two LLC rows.
The model is contention-aware link occupancy, plus flit-hop accounting
for the 5.4 pJ/flit/hop energy model.  The mesh size and the per-hop
delay come from the machine description the caller holds.
"""

from repro.noc.packet import Packet, PacketKind, FLIT_BITS
from repro.noc.router import xy_route
from repro.noc.mesh import MeshNoC, NoCStats

__all__ = [
    "Packet",
    "PacketKind",
    "FLIT_BITS",
    "xy_route",
    "MeshNoC",
    "NoCStats",
]
