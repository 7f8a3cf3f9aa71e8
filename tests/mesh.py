"""Mesh helpers shared by the NoC, placement and traffic tests."""

from repro.noc.mesh import MeshNoC
from repro.sim.config import SimConfig


def hop_count(src, dst):
    """Manhattan distance: the number of links an X-Y packet crosses."""
    return abs(src[0] - dst[0]) + abs(src[1] - dst[1])


def paper_noc(**kwargs):
    """The default machine's mesh NoC (16x16, 2-cycle hops)."""
    machine = SimConfig()
    return MeshNoC(
        machine.chip.mesh_width,
        machine.chip.mesh_height,
        machine.params.hop_latency,
        **kwargs,
    )
