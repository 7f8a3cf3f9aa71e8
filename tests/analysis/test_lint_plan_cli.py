"""Exit-code and determinism contract of scripts/lint_plan.py.

Pinned contract: 0 clean, 1 error diagnostics (or ``--strict`` warnings,
or a deadlocked ``--replay``), 2 usage/build failure.  JSON output must
be byte-identical across runs — the CI ``analysis-smoke`` job diffs it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def lint_plan(*args):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "lint_plan.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestExitCodes:
    def test_clean_network_exits_0(self):
        proc = lint_plan("--network", "small-cnn")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout

    @pytest.mark.parametrize("kind,rule", [
        ("cmem", "PLAN601"),
        ("noc", "NOC701"),
    ])
    def test_broken_artifacts_exit_1(self, kind, rule):
        proc = lint_plan("--network", "small-cnn", "--broken", kind)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert rule in proc.stdout

    def test_no_target_is_usage_error_2(self):
        proc = lint_plan()
        assert proc.returncode == 2

    def test_unknown_strategy_is_usage_error_2(self):
        proc = lint_plan("--network", "small-cnn", "--strategy", "nope")
        assert proc.returncode == 2
        assert "lint_plan:" in proc.stderr

    def test_network_and_tenants_are_exclusive(self):
        proc = lint_plan("--network", "small-cnn", "--tenants", "smoke")
        assert proc.returncode == 2


class TestJsonMode:
    def test_json_is_byte_identical_across_runs(self):
        first = lint_plan("--network", "small-cnn", "--json")
        second = lint_plan("--network", "small-cnn", "--json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_json_reports_broken_plan(self):
        proc = lint_plan(
            "--network", "small-cnn", "--broken", "cmem", "--json"
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["clean"] is False
        assert any(d["rule"] == "PLAN601" for d in payload["diagnostics"])
        assert payload["broken"] == "cmem"

    def test_json_lists_residents(self):
        proc = lint_plan("--tenants", "smoke", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert [r["name"] for r in payload["residents"]] == ["alpha", "beta"]


class TestReplay:
    def test_replay_clean_plan_drains(self):
        proc = lint_plan("--network", "small-cnn", "--replay", "--json")
        assert proc.returncode == 0
        replay = json.loads(proc.stdout)["replay"]
        assert replay["deadlocked"] is False
        assert replay["stalled"] == []

    def test_replay_of_injected_cycle_deadlocks(self):
        proc = lint_plan(
            "--network", "small-cnn", "--broken", "noc", "--replay", "--json"
        )
        assert proc.returncode == 1
        replay = json.loads(proc.stdout)["replay"]
        assert replay["deadlocked"] is True
        assert len(replay["stalled"]) == 4


class TestFamilies:
    def test_plan_family_alone_skips_noc_rules(self):
        proc = lint_plan(
            "--network", "small-cnn", "--broken", "noc",
            "--families", "plan", "--json",
        )
        # The injected cycle lives in the noc family; restricting to
        # plan must not see it.
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["families"] == ["plan"]
