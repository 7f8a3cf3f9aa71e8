"""PLAN606 is the one co-residency check: it fires exactly on shared tiles.

The verifier compares snake-walk intervals; the oracle here is the tile
sets the residents' zig-zag placements actually occupy (the
``region_tiles`` fixture).  On drawn plans and region offsets inside the
snake region, each pair of residents gets one PLAN606 exactly when
their tile sets intersect.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis import ResidentPlan, verify_plan  # noqa: E402
from repro.mapping.allocation import AllocationResult  # noqa: E402
from repro.mapping.segmentation import Segment, SegmentPlan  # noqa: E402
from repro.nn.workloads import ConvLayerSpec, NetworkSpec  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402

SNAKE_TILES = SimConfig().chip.compute_tiles


@st.composite
def _plans(draw):
    """One to three segments of one to three small layers each."""
    segments = []
    index = 1
    for _ in range(draw(st.integers(1, 3))):
        layers, nodes = [], {}
        for _ in range(draw(st.integers(1, 3))):
            layers.append(ConvLayerSpec(index, f"l{index}", h=4, w=4, c=32, m=2))
            nodes[index] = draw(st.integers(1, 6))
            index += 1
        segments.append(Segment(
            layers=layers,
            allocation=AllocationResult(
                nodes=nodes,
                times={i: 1.0 for i in nodes},
                bottleneck_time=1.0,
            ),
        ))
    network = NetworkSpec(
        name="drawn",
        layers=tuple(spec for segment in segments for spec in segment.layers),
    )
    return SegmentPlan(strategy="drawn", network=network, segments=segments)


@st.composite
def _residents(draw):
    """Two or three residents, each wholly inside the snake region.

    Half the offsets come from the region's first 40 tiles, so that
    overlapping and disjoint layouts are both common.
    """
    residents = []
    for name in ("a", "b", "c")[: draw(st.integers(2, 3))]:
        plan = draw(_plans())
        last = SNAKE_TILES - ResidentPlan(name, plan).footprint
        start = draw(st.integers(0, 40) | st.integers(0, last))
        residents.append(ResidentPlan(name, plan, region_start=start))
    return residents


@settings(max_examples=150, deadline=None)
@given(residents=_residents())
def test_plan606_fires_exactly_when_tile_sets_intersect(residents, region_tiles):
    flagged = {
        d.opcode
        for d in verify_plan(co_resident=residents).diagnostics
        if d.rule == "PLAN606"
    }
    shared = {
        f"{a.name}+{b.name}"
        for a, b in itertools.combinations(residents, 2)
        if region_tiles(a.plan.segments, a.region_start)
        & region_tiles(b.plan.segments, b.region_start)
    }
    assert flagged == shared
