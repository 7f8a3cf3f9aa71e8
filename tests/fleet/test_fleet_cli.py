"""scripts/fleet.py CLI: JSON artifacts, assert flags, balancer sweeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet import BALANCERS

REPO = Path(__file__).resolve().parents[2]
FLEET = REPO / "scripts" / "fleet.py"


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(FLEET), *args],
        capture_output=True,
        text=True,
        env=env,
        check=check,
        cwd=str(REPO),
    )


class TestFleetCli:
    def test_smoke_run_writes_a_fleet_json(self, tmp_path):
        out = tmp_path / "fleet.json"
        proc = run_cli(
            "--scenario", "fleet-smoke",
            "--assert-no-shed", "--assert-conserved",
            "--json-out", str(out),
        )
        assert "conserved" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload["kind"] == "fleet"
        assert payload["totals"]["conserved"] is True
        assert payload["totals"]["shed"] == 0

    def test_no_shed_assert_fails_on_chip_crash(self):
        proc = run_cli(
            "--scenario", "chip-crash", "--assert-no-shed", check=False
        )
        assert proc.returncode != 0

    def test_conserved_assert_passes_on_chip_crash(self):
        run_cli("--scenario", "chip-crash", "--assert-conserved")

    def test_balancer_sweep_writes_one_entry_per_policy(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli(
            "--scenario", "fleet-smoke",
            "--balancer", "all",
            "--duration-ms", "200",
            "--json-out", str(out),
        )
        payload = json.loads(out.read_text())
        assert set(payload) >= {"round-robin", "least-loaded", "p2c"}
        for entry in payload.values():
            assert entry["kind"] == "fleet"

    def test_same_seed_runs_emit_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(
                "--scenario", "fleet-smoke",
                "--seed", "13",
                "--json-out", str(out),
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_duration_is_rejected_and_writes_nothing(self, tmp_path):
        # An explicit 0 is a duration, not "use the scenario default", and
        # the parser rejects it as a usage error, not a traceback.
        out = tmp_path / "fleet.json"
        proc = run_cli(
            "--scenario", "fleet-smoke",
            "--duration-ms", "0",
            "--json-out", str(out),
            check=False,
        )
        assert proc.returncode == 2
        assert "error: duration must be positive, got 0.0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["fleet-smoke", "chip-crash"])
    def test_chips_below_the_scenario_floor_is_a_usage_error(
        self, tmp_path, scenario
    ):
        # A scenario's chip floor reaches the user as argparse's exit 2 with
        # its message, not as a traceback.
        out = tmp_path / "fleet.json"
        proc = run_cli(
            "--scenario", scenario,
            "--chips", "2",
            "--json-out", str(out),
            check=False,
        )
        assert proc.returncode == 2
        assert f"error: {scenario} needs >= 4 chips" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_balancer_sweep_writes_every_metrics_registry(self, tmp_path):
        swept = tmp_path / "all.json"
        run_cli(
            "--scenario", "fleet-smoke",
            "--balancer", "all",
            "--metrics-out", str(swept),
        )
        payload = json.loads(swept.read_text())
        assert set(payload) == set(BALANCERS)
        for name in BALANCERS:
            own = tmp_path / f"{name}.json"
            run_cli(
                "--scenario", "fleet-smoke",
                "--balancer", name,
                "--metrics-out", str(own),
            )
            assert payload[name] == json.loads(own.read_text()), name
