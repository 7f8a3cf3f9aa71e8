"""Zig-zag placement of node groups onto the compute array (Fig. 7(c)).

Node groups are laid out along a boustrophedon (snake) walk of the chip's
compute region (15x14 tiles on the paper's 16x16 mesh) so that
consecutive cores of a group — the cores that exchange an ifmap vector
every iteration — are physically adjacent, and each group's tail sits
near the next group's data-collection core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.errors import PlacementError
from repro.mapping.segmentation import Segment

Coord = Tuple[int, int]


class Region(NamedTuple):
    """A ``width`` x ``height`` rectangle of mesh tiles from ``origin``.

    The placements walk :attr:`repro.core.chip.ChipConfig.compute_region`.
    """

    origin: Coord
    width: int
    height: int

    @property
    def tiles(self) -> int:
        return self.width * self.height


@dataclass
class NodePlacement:
    """Coordinates of every node of one segment on the mesh."""

    dc: Dict[int, Coord] = field(default_factory=dict)  # layer index -> DC tile
    computing: Dict[int, List[Coord]] = field(default_factory=dict)


def _snake(region: Region) -> Iterator[Coord]:
    """Boustrophedon walk over a region."""
    (x0, y0), width, height = region
    for row in range(height):
        cols = range(width) if row % 2 == 0 else range(width - 1, -1, -1)
        for col in cols:
            yield (x0 + col, y0 + row)


def _raster(region: Region) -> Iterator[Coord]:
    """Plain reading-order walk (rows always left to right)."""
    (x0, y0), width, height = region
    for row in range(height):
        for col in range(width):
            yield (x0 + col, y0 + row)


def _place_along(walk: Iterator[Coord], segment: Segment) -> NodePlacement:
    placement = NodePlacement()
    for spec in segment.layers:
        placement.dc[spec.index] = next(walk)
        placement.computing[spec.index] = [
            next(walk) for _ in range(segment.allocation.nodes[spec.index])
        ]
    return placement


def _check_fits(segment: Segment, region: Region) -> None:
    total = segment.total_nodes
    if total > region.tiles:
        raise PlacementError(
            f"segment needs {total} tiles but the region has {region.tiles}"
        )


def zigzag_placement(
    segment: Segment, region: Region, *, start_offset: int = 0
) -> NodePlacement:
    """Place one segment's node groups along the snake walk of ``region``.

    ``start_offset`` skips that many tiles of the walk — used to give each
    model of a multi-DNN deployment its own contiguous snake interval.
    """
    total = segment.total_nodes
    if start_offset + total > region.tiles:
        raise PlacementError(
            f"segment needs tiles [{start_offset}, {start_offset + total}) "
            f"but the region has {region.tiles}"
        )
    walk = _snake(region)
    for _ in range(start_offset):
        next(walk)
    return _place_along(walk, segment)


def raster_placement(segment: Segment, region: Region) -> NodePlacement:
    """Reading-order placement — the obvious alternative to zig-zag.

    Chains break at every row wrap (the next core is ``width - 1`` hops
    away), which is exactly the overhead Fig. 7(c)'s zig-zag avoids.
    """
    _check_fits(segment, region)
    return _place_along(_raster(region), segment)


def random_placement(
    segment: Segment, region: Region, *, seed: int = 0
) -> NodePlacement:
    """Uniformly random tile assignment — the placement lower bound."""
    import random

    _check_fits(segment, region)
    tiles = list(_raster(region))
    rng = random.Random(seed)
    rng.shuffle(tiles)
    return _place_along(iter(tiles), segment)
