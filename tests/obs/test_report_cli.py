"""scripts/report.py end to end: artifacts exist, validate, and repeat
byte-for-byte — the same contract the CI ``obs-smoke`` job enforces."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SCRIPT = os.path.join(ROOT, "scripts", "report.py")


def run_script(script, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, script, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def run_report(tmp_path, stem, *argv):
    html = tmp_path / f"{stem}.html"
    doc = tmp_path / f"{stem}.json"
    proc = run_script(
        SCRIPT, *argv, "--out", str(html), "--json-out", str(doc)
    )
    assert proc.returncode == 0, proc.stderr
    return html.read_bytes(), doc.read_bytes()


@pytest.fixture(scope="module")
def overloaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs-cli")
    return [
        run_report(
            tmp, f"run{i}", "serving",
            "--scenario", "mixed-rate-overloaded", "--policy", "elastic",
        )
        for i in range(2)
    ]


class TestServingCLI:
    def test_reruns_are_byte_identical(self, overloaded):
        (html1, json1), (html2, json2) = overloaded
        assert html1 == html2
        assert json1 == json2

    def test_overloaded_scenario_raises_burn_rate_alerts(self, overloaded):
        doc = json.loads(overloaded[0][1])
        kinds = [a["kind"] for a in doc["alerts"]]
        assert "burn_rate" in kinds

    def test_document_passes_schema_validation(self, overloaded):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            from repro.obs.report import validate_report
        finally:
            sys.path.pop(0)
        validate_report(json.loads(overloaded[0][1]))

    def test_html_is_self_contained(self, overloaded):
        page = overloaded[0][0].decode()
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page


class TestXCheckCLI:
    def test_xcheck_reruns_are_byte_identical(self, tmp_path):
        argv = ("xcheck", "--workload", "tiny",
                "--backends", "analytic", "streaming")
        first = run_report(tmp_path, "x1", *argv)
        second = run_report(tmp_path, "x2", *argv)
        assert first == second
        doc = json.loads(first[1])
        assert doc["kind"] == "xcheck"
        assert set(doc["workloads"]) == {"small_cnn"}


#: The usage error each bad trailing ``(option, value)`` pair draws.
USAGE_ERRORS = {
    ("--duration-ms", "0"): "duration must be positive, got 0.0",
    ("--duration-ms", "-5"): "duration must be positive, got -5.0",
    ("--workers", "-1"): "workers must be >= 0, got -1",
}


class TestDurationOverride:
    @pytest.mark.parametrize("script, argv", [
        ("report.py", ("serving", "--scenario", "smoke", "--duration-ms", "0")),
        ("report.py", ("fleet", "--scenario", "fleet-smoke",
                       "--duration-ms", "0")),
        ("serve.py", ("--scenario", "smoke", "--duration-ms", "0")),
        ("serve.py", ("--scenario", "smoke", "--duration-ms", "-5")),
        ("fleet.py", ("--scenario", "fleet-smoke", "--workers", "-1")),
        ("report.py", ("fleet", "--scenario", "fleet-smoke",
                       "--workers", "-1")),
        ("dse.py", ("--sweep", "smoke", "--workers", "-1")),
        ("report.py", ("dse", "--workers", "-1")),
    ])
    def test_zero_duration_is_rejected_and_writes_nothing(
        self, tmp_path, script, argv
    ):
        # An explicit 0 is a duration, not "use the scenario default"; it
        # and a negative worker count are usage errors: exit 2 with the
        # message, no traceback, and no document written.
        doc = tmp_path / "doc.json"
        proc = run_script(
            os.path.join(ROOT, "scripts", script), *argv, "--json-out", str(doc)
        )
        assert proc.returncode == 2
        assert f"error: {USAGE_ERRORS[argv[-2:]]}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not doc.exists()


class TestChipFloor:
    @pytest.mark.parametrize("scenario", ["fleet-smoke", "chip-crash"])
    def test_chips_below_the_scenario_floor_is_a_usage_error(
        self, tmp_path, scenario
    ):
        doc = tmp_path / "doc.json"
        proc = run_script(
            SCRIPT, "fleet", "--scenario", scenario, "--chips", "2",
            "--json-out", str(doc),
        )
        assert proc.returncode == 2
        assert f"error: {scenario} needs >= 4 chips" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not doc.exists()
