"""Zig-zag placement of node groups onto the compute array (Fig. 7(c)).

Node groups are laid out along a boustrophedon (snake) walk of the 15x14
compute region so that consecutive cores of a group — the cores that
exchange an ifmap vector every iteration — are physically adjacent, and
each group's tail sits near the next group's data-collection core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import PlacementError
from repro.mapping.segmentation import Segment

Coord = Tuple[int, int]


@dataclass
class NodePlacement:
    """Coordinates of every node of one segment on the mesh."""

    dc: Dict[int, Coord] = field(default_factory=dict)  # layer index -> DC tile
    computing: Dict[int, List[Coord]] = field(default_factory=dict)

    def render(self, *, width: int = 16, height: int = 16) -> str:
        """ASCII map of the placement on the mesh (Fig. 7(c) style).

        ``D`` marks a data-collection core; letters a, b, c, ... mark the
        computing cores of successive layers; ``.`` is an unused tile.
        """
        grid = [["." for _ in range(width)] for _ in range(height)]
        for order, index in enumerate(sorted(self.dc)):
            symbol = chr(ord("a") + order % 26)
            x, y = self.dc[index]
            grid[y][x] = "D"
            for (cx, cy) in self.computing[index]:
                grid[cy][cx] = symbol
        return "\n".join(" ".join(row) for row in grid)


def _snake(width: int, height: int, x0: int = 0, y0: int = 0) -> Iterator[Coord]:
    """Boustrophedon walk over a width x height region."""
    for row in range(height):
        cols = range(width) if row % 2 == 0 else range(width - 1, -1, -1)
        for col in cols:
            yield (x0 + col, y0 + row)


def _raster(width: int, height: int, x0: int = 0, y0: int = 0) -> Iterator[Coord]:
    """Plain reading-order walk (rows always left to right)."""
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


def zigzag_placement(
    segment: Segment,
    *,
    width: int = 15,
    height: int = 14,
    origin: Coord = (0, 1),
    start_offset: int = 0,
) -> NodePlacement:
    """Place one segment's node groups along the snake walk.

    ``origin`` defaults to (0, 1): row 0 of the 16x16 mesh is an LLC row
    (Fig. 3(a)), so the compute region starts one row down.
    ``start_offset`` skips that many tiles of the walk — used to give each
    model of a multi-DNN deployment its own contiguous snake interval.
    """
    total = segment.total_nodes
    if start_offset + total > width * height:
        raise PlacementError(
            f"segment needs tiles [{start_offset}, {start_offset + total}) "
            f"but the region has {width * height}"
        )
    walk = _snake(width, height, origin[0], origin[1])
    for _ in range(start_offset):
        next(walk)
    return _place_along(walk, segment)


def raster_placement(
    segment: Segment,
    *,
    width: int = 15,
    height: int = 14,
    origin: Coord = (0, 1),
) -> NodePlacement:
    """Reading-order placement — the obvious alternative to zig-zag.

    Chains break at every row wrap (the next core is ``width - 1`` hops
    away), which is exactly the overhead Fig. 7(c)'s zig-zag avoids.
    """
    total = segment.total_nodes
    if total > width * height:
        raise PlacementError(
            f"segment needs {total} tiles but the region has {width * height}"
        )
    walk = _raster(width, height, origin[0], origin[1])
    return _place_along(walk, segment)


def random_placement(
    segment: Segment,
    *,
    width: int = 15,
    height: int = 14,
    origin: Coord = (0, 1),
    seed: int = 0,
) -> NodePlacement:
    """Uniformly random tile assignment — the placement lower bound."""
    import random

    total = segment.total_nodes
    tiles = [
        (origin[0] + x, origin[1] + y)
        for y in range(height)
        for x in range(width)
    ]
    if total > len(tiles):
        raise PlacementError(
            f"segment needs {total} tiles but the region has {len(tiles)}"
        )
    rng = random.Random(seed)
    rng.shuffle(tiles)
    return _place_along(iter(tiles), segment)
