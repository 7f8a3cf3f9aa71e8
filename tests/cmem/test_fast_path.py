"""Differential tests: vectorized MAC engine vs. the per-pair reference.

The fast path must be indistinguishable from the reference in *everything*
observable: MAC results, CMem cycle/op stats, SRAM access counters,
energy totals and accumulator add tallies.  These tests stage identical
operands into two CMems — one per path — and compare the lot.  Two
wall-clock guards (``TestFastPathSpeed``) keep the fast path fast.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cmem.cmem import CMem
from tests.readback import read_transposed


def _stage(cmem: CMem, slice_index, base_row, values, n_bits, signed):
    cmem.store_vector_transposed(
        slice_index, base_row, values, n_bits, signed=signed
    )


def _observable(cmem: CMem, slice_index: int):
    return (
        dataclasses.asdict(cmem.stats),
        dataclasses.asdict(cmem.slice(slice_index).array.stats),
        round(cmem.energy.total_pj, 9),
        {op: round(pj, 9) for op, pj in cmem.energy.by_op.items()},
        cmem.accumulator.adds,
        cmem.accumulator.value,
    )


def _lane_select(mask: int, length: int) -> np.ndarray:
    lanes = np.repeat([(mask >> lane) & 1 for lane in range(8)], 32)
    return lanes[:length].astype(bool)


@st.composite
def mac_case(draw):
    n_bits = draw(st.sampled_from([8, 16]))
    signed = draw(st.booleans())
    mask = draw(st.sampled_from([0xFF, 0x0F, 0xA5, 0x01]))
    length = draw(st.integers(min_value=1, max_value=256))
    lo, hi = (
        (-(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1)
        if signed
        else (0, (1 << n_bits) - 1)
    )
    elements = st.integers(min_value=lo, max_value=hi)
    a = draw(st.lists(elements, min_size=length, max_size=length))
    num_weights = draw(st.integers(min_value=1, max_value=3))
    ws = [
        draw(st.lists(elements, min_size=length, max_size=length))
        for _ in range(num_weights)
    ]
    return n_bits, signed, mask, a, ws


class TestDifferentialMAC:
    @settings(max_examples=40, deadline=None)
    @given(mac_case())
    def test_fast_path_matches_reference_everywhere(self, case):
        n_bits, signed, mask, a, ws = case
        outputs = {}
        for fast in (False, True):
            cmem = CMem(fast_path=fast)
            _stage(cmem, 1, 0, a, n_bits, signed)
            rows_b = []
            for i, w in enumerate(ws):
                row = n_bits * (i + 1)
                _stage(cmem, 1, row, w, n_bits, signed)
                rows_b.append(row)
            cmem.slice(1).csr_mask = mask
            singles = [
                cmem.mac(1, 0, row, n_bits, signed=signed) for row in rows_b
            ]
            many = cmem.mac_many(1, 0, rows_b, n_bits, signed=signed)
            outputs[fast] = (singles, list(many), _observable(cmem, 1))

        assert outputs[True] == outputs[False]

        # Both paths must also be *correct*: a masked integer dot product.
        select = _lane_select(mask, len(a))
        a_arr, singles = np.asarray(a, dtype=np.int64), outputs[True][0]
        for w, got in zip(ws, singles):
            expected = int(a_arr[select] @ np.asarray(w, dtype=np.int64)[select])
            assert got == expected
        assert outputs[True][1] == singles

    @settings(max_examples=15, deadline=None)
    @given(mac_case())
    def test_mac_many_equals_mac_loop_on_one_cmem(self, case):
        n_bits, signed, mask, a, ws = case
        cmem = CMem()
        _stage(cmem, 1, 0, a, n_bits, signed)
        rows_b = []
        for i, w in enumerate(ws):
            row = n_bits * (i + 1)
            _stage(cmem, 1, row, w, n_bits, signed)
            rows_b.append(row)
        cmem.slice(1).csr_mask = mask
        loop = [cmem.mac(1, 0, row, n_bits, signed=signed) for row in rows_b]
        macs_per_pass = cmem.stats.macs
        many = cmem.mac_many(1, 0, rows_b, n_bits, signed=signed)
        assert list(many) == loop
        assert cmem.stats.macs == 2 * macs_per_pass


class TestFastPathStatsContract:
    def test_staged_mac_pins_exact_counters(self):
        """The canonical 8-bit staged MAC: counters pinned to the model.

        Staging two 8-bit vectors costs 8 reads + 8 writes each
        (read-modify-write per bit row); one MAC.C activates all 64 row
        pairs.  Identical for both engine paths by construction.
        """
        for fast in (False, True):
            cmem = CMem(fast_path=fast)
            _stage(cmem, 1, 0, list(range(-4, 4)), 8, True)
            _stage(cmem, 1, 8, list(range(8)), 8, True)
            result = cmem.mac(1, 0, 8, 8)
            assert result == int(
                np.arange(-4, 4) @ np.arange(8)
            )
            stats = cmem.slice(1).array.stats
            assert stats.reads == 16
            assert stats.writes == 16
            assert stats.compute_activations == 64
            assert cmem.stats.busy_cycles == 64
            assert cmem.accumulator.adds == 64

    def test_reference_path_available_per_call_site(self):
        cmem = CMem(fast_path=False)
        assert cmem.fast_path is False
        cmem = CMem()
        assert cmem.fast_path is True


class TestTransposeBufferAccessCounts:
    """Regression: vertical byte I/O is one 8T port access, not eight."""

    def test_store_byte_counts_one_write(self):
        cmem = CMem()
        cmem.slice0.store_byte(5, 0xA7)
        assert cmem.slice0.array.stats.writes == 1
        assert cmem.slice0.array.stats.reads == 0

    def test_load_byte_counts_one_read(self):
        cmem = CMem()
        cmem.slice0.store_byte(300, 0x5C)
        before = cmem.slice0.array.stats.reads
        assert cmem.slice0.load_byte(300) == 0x5C
        assert cmem.slice0.array.stats.reads == before + 1

    def test_store_vector_counts_one_access_per_byte(self):
        cmem = CMem()
        values = list(range(-100, 100))
        cmem.slice0.store_vector(0, [v & 0xFF for v in values], 8)
        assert cmem.slice0.array.stats.writes == len(values)
        assert cmem.slice0.array.stats.reads == 0
        out = read_transposed(cmem.slice0.array, 0, len(values), 8, signed=True)
        assert list(out) == values

    def test_16bit_vector_counts_two_bytes_per_element(self):
        cmem = CMem()
        values = [-30000, -1, 0, 1, 12345]
        cmem.slice0.store_vector(0, values, 16)
        assert cmem.slice0.array.stats.writes == 2 * len(values)
        assert cmem.slice0.array.stats.reads == 0
        out = read_transposed(cmem.slice0.array, 0, len(values), 16, signed=True)
        assert list(out) == values


class TestShiftRowNoOp:
    """Regression: ShiftRow.C by zero words is a no-op, charged nothing."""

    def test_zero_word_shift_charges_nothing(self):
        cmem = CMem()
        cmem.set_row(1, 3, 1)
        cycles, energy = cmem.stats.busy_cycles, cmem.energy.total_pj
        shifts = cmem.stats.shift_rows
        cmem.shift_row(1, 3, 0)
        assert cmem.stats.busy_cycles == cycles
        assert cmem.energy.total_pj == energy
        assert cmem.stats.shift_rows == shifts
        assert list(cmem.slice(1).read_row(3)) == [1] * 256

    def test_zero_word_shift_still_validates_rows(self):
        cmem = CMem()
        with pytest.raises(Exception):
            cmem.shift_row(1, 99, 0)

    def test_nonzero_shift_still_charged(self):
        cmem = CMem()
        cmem.set_row(1, 3, 1)
        cycles = cmem.stats.busy_cycles
        cmem.shift_row(1, 3, 1)
        assert cmem.stats.busy_cycles == cycles + 2
        assert cmem.stats.shift_rows == 1


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


class TestFastPathSpeed:
    """Wall-clock guards with deliberately conservative floors.

    ``scripts/bench.py`` (the ``macc`` section of ``BENCH.json``) records
    ~40x for the fast 256-wide int8 ``CMem.mac``; the floor here stays
    green on slow or noisy machines and still catches the fast path
    falling back to the per-pair loop (~1x).
    """

    def test_fast_mac_beats_reference_under_null_sink(self):
        """The fast path clears the speedup floor with the ambient
        NullSink installed, so disabled telemetry (one ``enabled`` read
        per publication site) does not tax it.  A hook doing work on the
        disabled path (formatting a span, building an args dict) drops
        the speedup well below the floor."""
        assert telemetry.current() is telemetry.NULL_SINK
        ref_cmem, expected = _staged_pair(fast=False)
        fast_cmem, _ = _staged_pair(fast=True)
        assert ref_cmem.mac(1, 0, 8, 8) == expected
        assert fast_cmem.mac(1, 0, 8, 8) == expected

        t_ref = _best_per_call(lambda: ref_cmem.mac(1, 0, 8, 8), reps=20)
        t_fast = _best_per_call(lambda: fast_cmem.mac(1, 0, 8, 8), reps=200)
        speedup = t_ref / t_fast
        assert speedup >= SPEEDUP_FLOOR, (
            f"fast path only {speedup:.1f}x over reference with the default "
            f"NullSink (floor {SPEEDUP_FLOOR}x); did it fall back to the "
            f"per-pair loop, or is telemetry taxing the disabled path?"
        )

    def test_mac_many_amortizes_below_single_mac(self):
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
