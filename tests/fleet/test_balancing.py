"""Balancer unit behavior + the p2c two-choices load bound (property)."""

import math

import pytest

from repro.errors import SimulationError
from repro.fleet.balancing import (
    FluidLoadTracker,
    make_balancer,
)
from repro.fleet.traffic import generate_open_arrivals

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestFluidLoadTracker:
    def test_backlog_drains_at_speed(self):
        tracker = FluidLoadTracker()
        tracker.speed[0] = 2.0
        tracker.add(0, 0.0, 10.0)
        assert tracker.load_ms(0, 0.0) == pytest.approx(10.0)
        assert tracker.load_ms(0, 3.0) == pytest.approx(4.0)
        assert tracker.load_ms(0, 100.0) == 0.0

    def test_reset_chip_clears(self):
        tracker = FluidLoadTracker()
        tracker.add(1, 0.0, 5.0)
        tracker.reset_chip(1)
        assert tracker.load_ms(1, 0.0) == 0.0


    @settings(max_examples=100, deadline=None)
    @given(
        bills=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 40).map(lambda k: k * 0.5),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=12,
        ),
        speeds=st.dictionaries(
            st.integers(0, 5), st.floats(min_value=0.0, max_value=4.0)
        ),
        candidates=st.lists(
            st.integers(0, 7), min_size=1, max_size=8, unique=True
        ),
        now=st.one_of(
            st.integers(0, 50).map(lambda k: k * 0.5),
            st.floats(min_value=0.0, max_value=30.0),
        ),
    )
    def test_least_loaded_is_the_load_ms_argmin(
        self, bills, speeds, candidates, now
    ):
        # Candidates in any order; drained chips tie at 0.0 often.
        tracker = FluidLoadTracker()
        tracker.speed.update(speeds)
        for chip, t, est in bills:
            tracker.add(chip, t, est)
        expected = min(
            candidates, key=lambda chip: (tracker.load_ms(chip, now), chip)
        )
        assert tracker.least_loaded(candidates, now) == expected

    def test_least_loaded_needs_a_candidate(self):
        with pytest.raises(SimulationError, match="no candidate"):
            FluidLoadTracker().least_loaded([], 0.0)


class TestBalancers:
    def test_round_robin_cycles_per_model(self):
        balancer = make_balancer("round-robin", FluidLoadTracker())
        picks = [balancer.choose("m", [3, 5, 7], 0.0) for _ in range(6)]
        assert picks == [3, 5, 7, 3, 5, 7]
        # Independent counter per model.
        assert balancer.choose("other", [3, 5, 7], 0.0) == 3

    def test_least_loaded_follows_the_estimate(self):
        tracker = FluidLoadTracker()
        balancer = make_balancer("least-loaded", tracker)
        tracker.add(0, 0.0, 5.0)
        assert balancer.choose("m", [0, 1], 0.0) == 1
        tracker.add(1, 0.0, 9.0)
        assert balancer.choose("m", [0, 1], 0.0) == 0

    def test_p2c_is_seeded_and_avoids_the_loaded_chip(self):
        def picks(seed):
            tracker = FluidLoadTracker()
            tracker.add(0, 0.0, 100.0)
            balancer = make_balancer("p2c", tracker, seed=seed)
            return [balancer.choose("m", [0, 1, 2], 0.0) for _ in range(40)]

        assert picks(3) == picks(3)
        # Whenever chip 0 is sampled it loses the comparison, so it can
        # only appear when both samples miss it — never, with 3 chips.
        assert 0 not in picks(3)

    def test_sticky_pins_each_model_until_its_chip_leaves(self):
        tracker = FluidLoadTracker()
        balancer = make_balancer("sticky", tracker)
        chips = [0, 1, 2, 3]
        for model in ("vision", "speech", "detect"):
            pinned = balancer.choose(model, chips, 0.0)
            # Load-blind: piling work on the pinned chip never moves it.
            tracker.add(pinned, 0.0, 100.0)
            assert all(
                balancer.choose(model, chips, t) == pinned
                for t in (1.0, 2.0, 3.0)
            )
            survivors = [c for c in chips if c != pinned]
            assert balancer.choose(model, survivors, 4.0) in survivors

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown balancer"):
            make_balancer("optimal", FluidLoadTracker())


def load_imbalance(loads):
    """Max/mean chip load — 1.0 is perfectly balanced (the balance metric
    the two-choices tests assert on)."""
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    if mean <= 0:
        return 1.0
    return max(loads) / mean


class TestLoadImbalance:
    def test_balanced_is_one(self):
        assert load_imbalance([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_empty_and_zero_are_one(self):
        assert load_imbalance([]) == 1.0
        assert load_imbalance([0.0, 0.0]) == 1.0


def _route_counts(name, n_chips, times, seed):
    """Route a seeded Poisson stream; return per-chip assignment counts.

    Unit-cost requests against a non-draining tracker (speed 0) make the
    fluid estimate a pure ball count — the classic balls-into-bins
    setting the two-choices theorem speaks about.
    """
    tracker = FluidLoadTracker()
    for chip in range(n_chips):
        tracker.speed[chip] = 0.0
    balancer = make_balancer(name, tracker, seed=seed)
    counts = [0] * n_chips
    candidates = list(range(n_chips))
    for t in times:
        chip = balancer.choose("m", candidates, t)
        counts[chip] += 1
        tracker.add(chip, t, 1.0)
    return counts


class TestTwoChoicesBound:
    @settings(max_examples=25, deadline=None)
    @given(
        n_chips=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_p2c_max_load_within_loglog_of_round_robin(self, n_chips, seed):
        """Azar et al.: two choices overshoot the mean by O(log log N).

        Round-robin is the perfectly balanced reference (max = ceil of
        the mean); p2c's max must stay within an additive
        ``C1 + C2 * log2(log2 N + 1)`` of it on seeded Poisson traffic —
        a single-choice random balancer overshoots by Θ(log N / log log N)
        and blows this bound as N grows.
        """
        times = generate_open_arrivals(
            rate_hz=40.0 * n_chips, seed=seed, duration_ms=1000.0
        )
        rr = _route_counts("round-robin", n_chips, times, seed)
        p2c = _route_counts("p2c", n_chips, times, seed)
        assert sum(p2c) == sum(rr) == len(times)
        bound = 4.0 + 3.0 * math.log2(math.log2(n_chips) + 1.0)
        assert max(p2c) <= max(rr) + bound

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_p2c_beats_no_balancing_materially(self, seed):
        """Sanity floor: p2c imbalance stays near 1 at fleet scale."""
        n_chips = 32
        times = generate_open_arrivals(
            rate_hz=60.0 * n_chips, seed=seed, duration_ms=1000.0
        )
        p2c = _route_counts("p2c", n_chips, times, seed)
        assert load_imbalance([float(c) for c in p2c]) < 1.25
