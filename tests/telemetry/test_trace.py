"""The trace recorder and the Chrome trace-event schema validator."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import TraceRecorder, validate_chrome_trace


class TestRecording:
    def test_complete_span(self):
        tr = TraceRecorder()
        ev = tr.complete("core/0", "kernel", 0, 100, args={"ipc": 0.5})
        assert (ev.ph, ev.ts, ev.dur) == ("X", 0, 100)
        assert tr.cursor("core/0") == 100

    def test_instant_advances_cursor(self):
        tr = TraceRecorder()
        tr.instant("events", "tick", 7)
        assert tr.cursor("events") == 7

    def test_negative_duration_rejected(self):
        with pytest.raises(TelemetryError):
            TraceRecorder().complete("t", "x", 0, -1)

    def test_late_event_clamped_to_cursor(self):
        """A zero-based re-run on the same track stacks sequentially."""
        tr = TraceRecorder()
        tr.complete("core/0", "run1", 0, 50)
        ev = tr.complete("core/0", "run2", 0, 30)
        assert ev.ts == 50
        assert tr.cursor("core/0") == 80

    def test_tracks_map_to_process_and_thread(self):
        tr = TraceRecorder()
        tr.instant("core/0", "a", 0)
        tr.instant("core/1", "b", 0)
        tr.instant("noc/0,0->1,0", "c", 0)
        chrome = tr.to_chrome()
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        pids = {e["args"]["name"]: e["pid"] for e in chrome["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert pids.keys() == {"core", "noc"}
        # Both core tracks live in the "core" process, on distinct threads.
        core_tracks = [k for k, v in names.items() if v.startswith("core/")]
        assert {pid for pid, _ in core_tracks} == {pids["core"]}
        assert len({tid for _, tid in core_tracks}) == 2


class TestExportAndValidation:
    def _trace(self):
        tr = TraceRecorder()
        tr.complete("core/0", "kernel", 0, 100)
        tr.complete("core/0", "kernel", 100, 50)
        tr.instant("events", "tick", 3)
        return tr

    def test_roundtrip_validates(self):
        chrome = json.loads(self._trace().to_json())
        assert validate_chrome_trace(chrome) == len(chrome["traceEvents"])

    def test_required_keys_present_on_every_event(self):
        for ev in self._trace().to_chrome()["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in ev

    def test_missing_key_rejected(self):
        chrome = self._trace().to_chrome()
        del chrome["traceEvents"][-1]["name"]
        with pytest.raises(TelemetryError, match="missing required key"):
            validate_chrome_trace(chrome)

    def test_non_monotone_track_rejected(self):
        chrome = {
            "traceEvents": [
                {"ph": "i", "ts": 10, "pid": 1, "tid": 1, "name": "a", "s": "t"},
                {"ph": "i", "ts": 5, "pid": 1, "tid": 1, "name": "b", "s": "t"},
            ]
        }
        with pytest.raises(TelemetryError, match="monotone"):
            validate_chrome_trace(chrome)

    def test_interleaved_tracks_are_independent(self):
        chrome = {
            "traceEvents": [
                {"ph": "i", "ts": 10, "pid": 1, "tid": 1, "name": "a", "s": "t"},
                {"ph": "i", "ts": 5, "pid": 1, "tid": 2, "name": "b", "s": "t"},
                {"ph": "i", "ts": 11, "pid": 1, "tid": 1, "name": "c", "s": "t"},
            ]
        }
        assert validate_chrome_trace(chrome) == 3

    def test_unknown_phase_rejected(self):
        chrome = {"traceEvents": [
            {"ph": "?", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]}
        with pytest.raises(TelemetryError, match="unknown phase"):
            validate_chrome_trace(chrome)

    def test_span_without_dur_rejected(self):
        chrome = {"traceEvents": [
            {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]}
        with pytest.raises(TelemetryError, match="dur"):
            validate_chrome_trace(chrome)

    def test_non_object_trace_rejected(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace([1, 2, 3])
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"events": []})
