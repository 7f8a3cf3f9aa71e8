"""BENCHMARK.json limits and smoke runs of ``bench/run.py`` end to end."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import trace
from bench.workloads import WORKLOADS
from repro.telemetry import validate_chrome_trace

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_config_names_and_limits():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONFIG["command"] == ["python3", "bench/run.py"]
    assert CONFIG["paths"] == ["bench"]
    assert isinstance(CONFIG["run_seconds"], int) and 1 <= CONFIG["run_seconds"] <= 60
    workloads, e2e, layers = CONFIG["workloads"], CONFIG["end_to_end"], CONFIG["per_layer"]
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in workloads + e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for w in workloads:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in e2e + layers:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert set(m) == ({"name", "unit", "better", "bound"} if m in e2e else {"name", "unit", "better"})
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_list_is_what_the_recorder_reports():
    produced = set(trace.run_metrics([(trace.Recorder(), {})])) | {"bench.trace_overhead"}
    assert {m["name"] for m in CONFIG["per_layer"]} == produced


def test_golden_digests_cover_seeds_zero_and_one():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert {w: sorted(seeds) for w, seeds in golden.items()} == {w: ["0", "1"] for w in WORKLOADS}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``(seed, traced) -> (result lines, {workload: record}, out dir)``."""
    runs = {}
    for seed, traced in ((0, 0), (1, 0), (0, 1)):
        out = tmp_path_factory.mktemp(f"seed{seed}-trace{traced}")
        proc = run_bench(
            ROOT, "--smoke", "--seconds", "1", "--seed", str(seed),
            "--trace", str(traced), "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        suffix = ".traced.json" if traced else ".json"
        records = {w: json.loads((out / f"{w}{suffix}").read_text()) for w in WORKLOADS}
        runs[seed, traced] = (lines, records, out)
    return runs


@pytest.mark.parametrize("traced, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_declared_metric(smoke, traced, section):
    lines, records, _ = smoke[0, traced]
    declared = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    for record in records.values():
        assert {"python", "numpy", "machine", "cpu_count", "git_rev", "seed", "reps"} <= set(record["meta"])
        assert record["outputs_match_golden"] is None  # golden.json holds full sizes only
        assert len(record["calibration_s"]) == record["rep_s"]["n"] == len(record["rep_s"]["all"])
        assert min(record["calibration_s"] + record["setup_raw_samples_s"]) > 0


def test_seed_moves_generated_inputs_but_not_the_enumerated_sweep(smoke):
    seed0, seed1 = smoke[0, 0][1], smoke[1, 0][1]
    assert seed0["dse-frontier"]["digest"] == seed1["dse-frontier"]["digest"]
    for workload in ("serve-elastic", "fleet-diurnal", "cycle-resnet18"):
        assert seed0[workload]["digest"] != seed1[workload]["digest"]


def test_traced_run_matches_untraced_outputs_and_writes_valid_traces(smoke):
    untraced = smoke[0, 0][1]
    _, traced, out = smoke[0, 1]
    for workload in WORKLOADS:
        assert traced[workload]["digest"] == untraced[workload]["digest"]
        chrome = json.loads((out / f"{workload}.trace.json").read_text())
        assert validate_chrome_trace(chrome) > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run_bench(tmp_path, "--workload", "dse-frontier", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
