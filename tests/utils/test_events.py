"""Tests for the discrete-event kernel."""

import collections
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.telemetry import Telemetry
from repro.utils.events import EventQueue


class TestEventQueue:
    def test_dispatch_in_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(5, lambda: seen.append("late"))
        q.schedule(1, lambda: seen.append("early"))
        q.run()
        assert seen == ["early", "late"]

    def test_fifo_among_simultaneous_events(self):
        q = EventQueue()
        seen = []
        for tag in "abc":
            q.schedule(3, lambda t=tag: seen.append(t))
        q.run()
        assert seen == ["a", "b", "c"]

    def test_now_tracks_last_event(self):
        q = EventQueue()
        q.schedule(7, lambda: None)
        q.run()
        assert q.now == 7

    def test_schedule_in_past_rejected(self):
        q = EventQueue()
        q.schedule(10, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule_in(-1, lambda: None)

    def test_nan_time_rejected(self):
        # NaN compares false against every time: accepted, it would sort
        # arbitrarily and leave `now` NaN, disarming the past-time guard.
        q = EventQueue()
        with pytest.raises(SimulationError, match="nan"):
            q.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            q.schedule_in(math.nan, lambda: None)
        assert len(q) == 0

    def test_nan_never_reaches_dispatch_order(self):
        q = EventQueue()
        seen = []
        for t in (5.0, math.nan, 1.0, 3.0, 2.0):
            try:
                q.schedule(t, lambda t=t: seen.append(t))
            except SimulationError:
                pass
        q.run()
        assert seen == [1.0, 2.0, 3.0, 5.0]
        assert q.now == 5.0
        with pytest.raises(SimulationError):
            q.schedule(0.0, lambda: None)

    def test_action_receives_its_arguments(self):
        q = EventQueue()
        seen = []
        q.schedule(2, seen.append, "b", tag="t")
        q.schedule(1, lambda *args: seen.append(args), 7, 2)
        q.schedule_in(3, seen.extend, ("c", "d"))
        q.run()
        assert seen == [(7, 2), "b", "c", "d"]

    def test_events_can_schedule_events(self):
        q = EventQueue()
        seen = []

        def first():
            seen.append("first")
            q.schedule_in(2, lambda: seen.append("second"))

        q.schedule(1, first)
        q.run()
        assert seen == ["first", "second"]
        assert q.now == 3


class TestDeterminism:
    """Dispatch order is a pure function of the schedule calls.

    The heap orders by ``(time, seq)`` where ``seq`` is the schedule-call
    counter, so equal-time events — including ones scheduled from inside
    other events — replay identically run after run.  The serving layer's
    byte-identical metric exports depend on this.
    """

    @staticmethod
    def build_and_run():
        q = EventQueue()
        order = []

        def spawn(tag, t, children=()):
            def fire():
                order.append(tag)
                for child_tag, child_t in children:
                    q.schedule(child_t, spawn(child_tag, child_t))
                    order.append(f"scheduled:{child_tag}")
            return fire

        # Interleaved equal-time events plus nested scheduling that lands
        # on already-populated timestamps.
        q.schedule(2.0, spawn("a2", 2.0, children=[("a5", 5.0)]))
        q.schedule(5.0, spawn("b5", 5.0))
        q.schedule(2.0, spawn("c2", 2.0, children=[("c5", 5.0), ("c2b", 2.0)]))
        q.schedule(5.0, spawn("d5", 5.0))
        q.schedule(2.0, spawn("e2", 2.0))
        q.run()
        return order

    def test_identical_schedules_dispatch_identically(self):
        first = self.build_and_run()
        second = self.build_and_run()
        assert first == second

    def test_seq_breaks_equal_time_ties_by_schedule_order(self):
        order = [tag for tag in self.build_and_run()
                 if not tag.startswith("scheduled:")]
        # t=2: schedule-call order a2, c2, e2; c2's same-time child c2b
        # was scheduled later than all of them, so it fires last.
        # t=5: b5, d5 were scheduled before a2's and c2's children.
        assert order == ["a2", "c2", "e2", "c2b", "b5", "d5", "a5", "c5"]


# Strategy for a deterministic event program: each top-level entry is
# (time, [child delays]); firing an event appends its label and schedules
# its children at now + delay, so equal-time ties, nested scheduling,
# and same-timestamp children (delay 0) are all exercised.
_PROGRAMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    ),
    max_size=12,
)


def _top_tag(i):
    """Tag of top-level event ``i``; odd events are untagged, so
    telemetry must skip them."""
    return "" if i % 2 else "top"


def _reference(program):
    """``(label, time, seq, tag)`` in dispatch order, without a heap.

    An independent model of the kernel contract: ``seq`` counts schedule
    calls, and the next event is always the pending ``(time, seq)``
    minimum, found by sorting.
    """
    pending = [
        (t, i, f"e{i}", children, _top_tag(i))
        for i, (t, children) in enumerate(program)
    ]
    seq = len(pending)
    dispatched = []
    while pending:
        pending.sort(key=lambda entry: entry[:2])
        time, s, label, children, tag = pending.pop(0)
        dispatched.append((label, time, s, tag))
        for j, delay in enumerate(children):
            pending.append((time + delay, seq, f"{label}.{j}", (), "child"))
            seq += 1
    return dispatched


def _run_program(program, sink=None):
    """Run ``program`` on a fresh queue: its log, ``now`` and ``processed``."""
    q = EventQueue(telemetry=sink)
    order = []

    def fire(label, children):
        def action():
            order.append(label)
            for j, delay in enumerate(children):
                q.schedule_in(delay, fire(f"{label}.{j}", ()), tag="child")
        return action

    for i, (t, children) in enumerate(program):
        q.schedule(t, fire(f"e{i}", children), tag=_top_tag(i))
    q.run()
    return order, q.now, q.processed


class TestDispatchContract:
    """``run()`` against an independent reference."""

    @settings(max_examples=200, deadline=None)
    @given(program=_PROGRAMS)
    def test_run_follows_the_time_seq_reference(self, program):
        """Property: the queue follows the (time, seq) contract.

        For any program of (time, children) schedules — including
        equal-time ties and handlers that schedule at the current
        timestamp — ``run()`` dispatches exactly the order of an
        independent ``(time, seq)``-sorted reference, and lands on its
        ``now``/``processed``.  Under an enabled sink the ``events``
        instants and ``events/by_tag/*`` counters are the reference's
        tagged events.
        """
        reference = _reference(program)
        expected = (
            [label for label, *_ in reference],
            reference[-1][1] if reference else 0.0,
            len(reference),
        )
        assert _run_program(program) == expected

        tagged = [(tag, time, seq) for _, time, seq, tag in reference if tag]
        sink = Telemetry()
        assert _run_program(program, sink=sink) == expected
        instants = [
            (e.name, e.ts, e.args["seq"])
            for e in sink.trace.events
            if e.track == "events"
        ]
        assert instants == tagged
        counters = {
            path: counter.value
            for path, counter in sink.registry.counters.items()
            if path.startswith("events/by_tag/")
        }
        assert counters == {
            f"events/by_tag/{tag}": n
            for tag, n in collections.Counter(
                tag for tag, _, _ in tagged
            ).items()
        }
