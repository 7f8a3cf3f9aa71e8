"""Load generators: reproducibility and stream semantics."""

import pytest

from repro.errors import SimulationError
from repro.serving.arrivals import (
    PeriodicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from tests.serving.closed_loop import ClosedLoopArrivals


def drain(process, n=10):
    """First ``n`` open-loop arrival times."""
    times = []
    seeds = process.initial_arrivals()
    t = seeds[0] if seeds else None
    while t is not None and len(times) < n:
        times.append(t)
        t = process.next_ms(t)
    return times


class TestPeriodic:
    def test_accumulates_from_offset(self):
        p = PeriodicArrivals(2.5, offset_ms=1.0)
        assert drain(p, 4) == [1.0, 3.5, 6.0, 8.5]

    def test_rate(self):
        assert PeriodicArrivals(4.0).rate_hz == pytest.approx(250.0)

    def test_rejects_bad_period(self):
        with pytest.raises(SimulationError):
            PeriodicArrivals(0.0)
        with pytest.raises(SimulationError):
            PeriodicArrivals(1.0, offset_ms=-1)


class TestPoisson:
    def test_same_seed_same_stream(self):
        a = PoissonArrivals(500, seed=7)
        b = PoissonArrivals(500, seed=7)
        assert drain(a, 50) == drain(b, 50)

    def test_reset_rewinds(self):
        p = PoissonArrivals(500, seed=7)
        first = drain(p, 20)
        p.reset()
        assert drain(p, 20) == first

    def test_different_seeds_differ(self):
        assert drain(PoissonArrivals(500, seed=1)) != drain(
            PoissonArrivals(500, seed=2)
        )

    def test_mean_gap_tracks_rate(self):
        times = drain(PoissonArrivals(1000, seed=3), 2000)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert sum(gaps) / len(gaps) == pytest.approx(1.0, rel=0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(0)


class TestTrace:
    def test_replays_in_order(self):
        t = TraceArrivals([0.0, 1.5, 1.5, 9.0])
        assert drain(t) == [0.0, 1.5, 1.5, 9.0]
        assert t.initial_arrivals() == []  # exhausted

    def test_reset(self):
        t = TraceArrivals([2.0, 4.0])
        drain(t)
        t.reset()
        assert drain(t) == [2.0, 4.0]

    def test_validates(self):
        with pytest.raises(SimulationError):
            TraceArrivals([3.0, 1.0])
        with pytest.raises(SimulationError):
            TraceArrivals([-1.0])


class TestClosedLoop:
    def test_thinks_after_completion(self):
        p = ClosedLoopArrivals(5.0, offset_ms=2.0)
        assert p.closed_loop
        assert p.initial_arrivals() == [2.0]
        assert p.after_completion_ms(10.0) == 15.0

    def test_think_trace_cycles(self):
        p = ClosedLoopArrivals([1.0, 2.0])
        assert p.after_completion_ms(0.0) == 1.0
        assert p.after_completion_ms(0.0) == 2.0
        assert p.after_completion_ms(0.0) == 1.0  # wrapped
        p.reset()
        assert p.after_completion_ms(0.0) == 1.0

    def test_validates(self):
        with pytest.raises(SimulationError):
            ClosedLoopArrivals([])
        with pytest.raises(SimulationError):
            ClosedLoopArrivals(-1.0)
