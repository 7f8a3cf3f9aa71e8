"""Run the benchmark.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                         [--smoke] [--out DIR]

Each workload runs in child processes (``bench/child.py``), one at a
time, each single-threaded.  Tracing off (``--trace 0``), the first
``SETUP_SAMPLES - 1`` children only set up and the last one sets up and
measures; ``setup_s`` is the median set-up.  Tracing on, one child
measures untraced and then traced reps.  For every workload the runner
prints each metric with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``, and writes the full
record (digests, raw rep and calibration times, metadata) to
``DIR/<workload>.json``
(``.traced.json`` for ``--trace``).  It exits 1 if an output check
failed and 2 if the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SETUP_SAMPLES = 3
#: Every child must be done this many seconds after the run started.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, args: argparse.Namespace, timeout: float) -> Dict:
    cmd = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--out", str(args.out),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} child ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def golden_match(workload: str, seed: int, smoke: bool, digest: Optional[str]) -> Optional[bool]:
    """Does the output digest equal the one recorded in ``golden.json``?

    ``None`` when nothing is recorded for this seed and size.  A mismatch
    means the model's outputs changed; it is reported, not gated on.
    """
    if smoke:
        return None
    expected = json.loads((BENCH / "golden.json").read_text()).get(workload, {}).get(str(seed))
    return None if expected is None else expected == digest


def rep_summary(walls: List[float]) -> Dict[str, object]:
    """Quartiles of the raw untraced rep times, the sample count and every sample."""
    q1, q2, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(walls), "all": walls}


def run_workload(workload: str, args: argparse.Namespace, config: Dict) -> bool:
    started = time.monotonic()

    def remaining() -> float:
        return max(30.0, DEADLINE_S - (time.monotonic() - started))

    traced = bool(args.trace)
    setup_only = 0 if traced or args.smoke else SETUP_SAMPLES - 1
    setups = [run_child("setup", workload, args, remaining()) for _ in range(setup_only)]
    res = run_child("trace" if traced else "measure", workload, args, remaining())
    setups.append(res)

    metrics = res["metrics"]
    if not traced:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    units = {m["name"]: m["unit"] for m in config["per_layer" if traced else "end_to_end"]}
    if set(metrics) != set(units):
        raise ChildFailed(
            f"{workload}: metrics differ from BENCHMARK.json "
            f"(missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))})"
        )
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    match = golden_match(workload, args.seed, args.smoke, res["digest"])
    record = dict(
        result,
        workload=workload,
        problems=res["problems"],
        digest=res["digest"],
        outputs_match_golden=match,
        setup_samples_s=[s["setup_s"] for s in setups],
        setup_raw_samples_s=[s["setup_raw_s"] for s in setups],
        rep_s=rep_summary(res["walls"]),
        calibration_s=res["calibrations"],
        meta={
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_rev": git_rev(),
            "seed": args.seed,
            "seconds": args.seconds,
            "reps": len(res["walls"]),
            "smoke": args.smoke,
            "traced": traced,
        },
    )
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = ".traced.json" if traced else ".json"
    (args.out / f"{workload}{suffix}").write_text(json.dumps(record, indent=2) + "\n")

    for problem in res["problems"]:
        print(f"bench: {workload}: {problem}", file=sys.stderr)
    if match is False:
        print(
            f"bench: WARNING {workload} seed {args.seed}: outputs differ from "
            "bench/golden.json (the model's outputs changed)",
            file=sys.stderr,
        )
    for name, metric in result["metrics"].items():
        print(f"{workload:<15} {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return bool(result["correct"])


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no src/repro package under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=names, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args(argv)

    ok = True
    try:
        for workload in [args.workload] if args.workload else names:
            ok &= run_workload(workload, args, config)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
