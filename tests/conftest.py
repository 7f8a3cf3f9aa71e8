"""Session fixtures shared across the suite.

``experiment`` holds one default serial run of each registered
experiment per test session.  The claim tests (``tests/experiments/``
and ``tests/integration/test_paper_claims.py``), the EXPERIMENTS.md pin
and the serial-vs-parallel pins all read the
:class:`~repro.experiments.report.ExperimentResult` that
``maicc-experiments`` prints, so each experiment is run at most once.
``region_tiles`` is the tile-level oracle of a tenant's snake region,
and ``chain_hops`` the hop oracle of a placed layer's streaming chain.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.mapping.placement import zigzag_placement
from repro.sim.config import SimConfig
from tests.mesh import hop_count


@pytest.fixture(scope="session")
def experiment():
    """``experiment(name)``: the memoized default serial run of ``name``."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = run_experiment(name)
        return runs[name]

    return get


@pytest.fixture(scope="session")
def region_tiles():
    """``region_tiles(segments, start_offset)``: every mesh tile a tenant's
    segments occupy over its run.

    The tenant owns the snake interval from ``start_offset``; its segments
    run one after another and each is zig-zag placed at the start of that
    interval of the default chip's compute region.  The tile-level oracle
    for co-residency checks, which work on snake intervals.
    """
    region = SimConfig().chip.compute_region

    def tiles(segments, start_offset):
        occupied = set()
        for segment in segments:
            placement = zigzag_placement(
                segment, region, start_offset=start_offset
            )
            occupied.update(placement.dc.values())
            for coords in placement.computing.values():
                occupied.update(coords)
        return occupied

    return tiles


@pytest.fixture(scope="session")
def chain_hops():
    """``chain_hops(placement, layer_index)``: hop distances along one
    layer's streaming chain, its DC first, then its computing cores."""

    def hops(placement, layer_index):
        chain = [placement.dc[layer_index]] + placement.computing[layer_index]
        return [hop_count(a, b) for a, b in zip(chain, chain[1:])]

    return hops
