"""Structured sim-time trace recorder with Chrome trace-event export.

Spans (``ph: "X"``) and instant events (``ph: "i"``) are recorded against
named **tracks** — one per core, router link, DRAM bank, or layer — and
exported as Chrome trace-event JSON, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Track names are ``/``-separated paths; the first segment becomes the
Perfetto *process* (``core``, ``noc``, ``dram``, ``layer``, ...) and the
full name the *thread*, so a many-core run renders as one process per
subsystem with one swim lane per core/link/bank.

All timestamps are **simulation time** (cycles, or a documented logical
clock for untimed functional runs) — never wall clock — so traces are
deterministic and diffable.  Chrome's ``ts`` field is nominally in
microseconds; we emit cycles and document the unit, which viewers render
fine.  Timestamps within one track must be monotone; the recorder clamps
a late-emitted event forward to the track cursor (the end of the last
event) so re-entrant components — e.g. a pipeline re-run on the same
core — stack sequentially instead of producing an invalid trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import TelemetryError

Number = Union[int, float]

#: ``ph`` values the validator accepts (the subset this recorder emits
#: plus counter samples and metadata).
KNOWN_PHASES = frozenset({"X", "i", "I", "C", "M", "B", "E"})

#: Keys every exported trace event must carry.
REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


@dataclass
class TraceEvent:
    """One recorded event, pre-export (track still symbolic)."""

    track: str
    name: str
    ph: str
    ts: Number
    dur: Optional[Number] = None
    args: Optional[Dict[str, object]] = None


@dataclass
class _Track:
    pid: int
    tid: int
    cursor: Number = 0  # end of the last event on this track


class TraceRecorder:
    """Collects deterministic sim-time spans/instants and exports JSON."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._tracks: Dict[str, _Track] = {}
        self._processes: Dict[str, int] = {}  # first path segment -> pid
        self._next_tid: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    # -- tracks -----------------------------------------------------------------

    def _track(self, name: str) -> _Track:
        track = self._tracks.get(name)
        if track is None:
            if not name:
                raise TelemetryError("track name must be non-empty")
            process = name.split("/", 1)[0]
            pid = self._processes.get(process)
            if pid is None:
                pid = self._processes[process] = len(self._processes) + 1
                self._next_tid[pid] = 1
            tid = self._next_tid[pid]
            self._next_tid[pid] = tid + 1
            track = self._tracks[name] = _Track(pid=pid, tid=tid)
        return track

    def cursor(self, track: str) -> Number:
        """End timestamp of the last event on ``track`` (0 if untouched).

        Components that keep a local zero-based clock (a re-run pipeline,
        a fresh CMem) offset their spans by this cursor so that repeated
        runs lay out sequentially on the shared track.
        """
        return self._track(track).cursor

    # -- recording ----------------------------------------------------------------

    def complete(
        self,
        track: str,
        name: str,
        ts: Number,
        dur: Number,
        args: Optional[Dict[str, object]] = None,
    ) -> TraceEvent:
        """Record a complete span (``ph: "X"``) of ``dur`` sim-time units."""
        if dur < 0:
            raise TelemetryError(f"span duration must be >= 0, got {dur}")
        t = self._track(track)
        ts = max(ts, t.cursor)  # clamp: tracks must stay monotone
        t.cursor = ts + dur
        event = TraceEvent(track=track, name=name, ph="X", ts=ts, dur=dur, args=args)
        self._events.append(event)
        return event

    def instant(
        self,
        track: str,
        name: str,
        ts: Number,
        args: Optional[Dict[str, object]] = None,
    ) -> TraceEvent:
        """Record an instant event (``ph: "i"``) at sim time ``ts``."""
        t = self._track(track)
        ts = max(ts, t.cursor)
        t.cursor = ts
        event = TraceEvent(track=track, name=name, ph="i", ts=ts, args=args)
        self._events.append(event)
        return event

    # -- export -------------------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        """Export as a Chrome trace-event JSON object.

        Metadata events name each process after its subsystem and each
        thread after its full track path; ``tid`` ordering follows track
        creation order, which is deterministic for deterministic runs.
        """
        events: List[Dict[str, object]] = []
        for process, pid in sorted(self._processes.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "ph": "M", "ts": 0, "pid": pid, "tid": 0,
                    "name": "process_name", "args": {"name": process},
                }
            )
        for name, track in self._tracks.items():
            events.append(
                {
                    "ph": "M", "ts": 0, "pid": track.pid, "tid": track.tid,
                    "name": "thread_name", "args": {"name": name},
                }
            )
        for ev in self._events:
            track = self._tracks[ev.track]
            out: Dict[str, object] = {
                "ph": ev.ph, "ts": ev.ts, "pid": track.pid, "tid": track.tid,
                "name": ev.name,
            }
            if ev.ph == "X":
                out["dur"] = ev.dur
            if ev.ph == "i":
                out["s"] = "t"  # thread-scoped instant
            if ev.args is not None:
                out["args"] = ev.args
            events.append(out)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"ts_unit": "simulation cycles"},
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=True)


def validate_chrome_trace(trace: object) -> int:
    """Validate a Chrome trace-event JSON object; returns the event count.

    Checks the contract the CI smoke job (and any Perfetto load) relies
    on: a ``traceEvents`` list whose entries carry ``ph``/``ts``/``pid``/
    ``tid``/``name``, known phase codes, non-negative ``ts``/``dur``, and
    per-``(pid, tid)`` monotone non-decreasing ``ts`` for non-metadata
    events.  Raises :class:`~repro.errors.TelemetryError` on violation.
    """
    if not isinstance(trace, dict):
        raise TelemetryError(f"trace must be a JSON object, got {type(trace).__name__}")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise TelemetryError("trace must contain a 'traceEvents' list")
    last_ts: Dict[Tuple[object, object], Number] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise TelemetryError(f"traceEvents[{i}] is not an object")
        for key in REQUIRED_KEYS:
            if key not in ev:
                raise TelemetryError(f"traceEvents[{i}] missing required key {key!r}")
        ph = ev["ph"]
        if ph not in KNOWN_PHASES:
            raise TelemetryError(f"traceEvents[{i}] has unknown phase {ph!r}")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            raise TelemetryError(f"traceEvents[{i}] has invalid ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                raise TelemetryError(f"traceEvents[{i}] span has invalid dur {dur!r}")
        if ph == "M":
            continue
        key_t = (ev["pid"], ev["tid"])
        prev = last_ts.get(key_t)
        if prev is not None and ts < prev:
            raise TelemetryError(
                f"traceEvents[{i}]: ts {ts} < {prev} on track pid={ev['pid']} "
                f"tid={ev['tid']} (timestamps must be monotone per track)"
            )
        last_ts[key_t] = ts
    return len(events)
