"""X-Y dimension-ordered routing on a 2D mesh."""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import NoCError

Coord = Tuple[int, int]


def _check(coord: Coord, width: int, height: int) -> None:
    x, y = coord
    if not (0 <= x < width and 0 <= y < height):
        raise NoCError(f"coordinate {coord} outside {width}x{height} mesh")


def xy_route(src: Coord, dst: Coord, width: int, height: int) -> List[Coord]:
    """The deterministic X-then-Y path from ``src`` to ``dst`` (inclusive)."""
    _check(src, width, height)
    _check(dst, width, height)
    path = [src]
    x, y = src
    step = 1 if dst[0] > x else -1
    while x != dst[0]:
        x += step
        path.append((x, y))
    step = 1 if dst[1] > y else -1
    while y != dst[1]:
        y += step
        path.append((x, y))
    return path
