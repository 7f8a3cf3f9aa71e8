"""One benchmark child process: set up, time reps, check the outputs.

``bench/run.py`` starts it as ``python -m bench.child`` from the checkout
root, with ``PYTHONPATH`` set to the checkout's ``src`` and one thread
per numeric library.  Modes:

``setup``
    import, build the inputs from the seed, warm up, report the set-up
    time and exit;
``measure``
    then time reps for ``--seconds`` with tracing off and report the
    end-to-end metrics;
``trace``
    then time untraced reps for half of ``--seconds`` and traced reps for
    the other half, report the per-layer metrics and write the Chrome
    trace of the last traced rep.

Every rep and every set-up is paired with a run of the calibration
kernel, and reported host times are scaled by it (:mod:`bench.calibrate`);
the raw times go to the parent alongside.  The last line of standard
output is one JSON object for the parent.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import numpy  # noqa: E402
import repro  # noqa: E402
from repro import telemetry  # noqa: E402

from bench import calibrate, trace  # noqa: E402
from bench.workloads import WORKLOADS, Outcome, digest, fidelity  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MIN_REPS = 3
MIN_TRACE_REPS = 2


@dataclass
class Rep:
    wall: float
    #: The calibration kernel's time just before this rep.
    calibration: float
    digest: Optional[str]
    outcome: Outcome
    recorder: Optional[trace.Recorder] = None

    @property
    def scaled_wall(self) -> float:
        return scaled(self.wall, self.calibration)


def scaled(seconds: float, calibration: float) -> float:
    """Host seconds on a host where the calibration kernel takes its reference time."""
    return seconds * calibrate.REFERENCE_S / calibration


def timed_reps(workload, inputs, seconds: float, min_reps: int, traced: bool) -> List[Rep]:
    """Run reps until the next one would end past ``seconds`` (``min_reps`` at least)."""
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        recorder = trace.Recorder() if traced else None
        calibration = calibrate.measure()
        gc.collect()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result, artifact = workload.rep(inputs)
            else:
                with trace.installed(recorder), recorder.span(trace.ROOT):
                    result, artifact = workload.rep(inputs)
            wall = time.perf_counter() - t0
            rep = Rep(wall, calibration, digest(artifact), workload.check(inputs, result), recorder)
        except Exception as exc:  # a failed rep is reported, not fatal
            wall = time.perf_counter() - t0
            traceback.print_exc()
            ops = reps[-1].outcome.ops if reps else 1
            problem = f"rep raised {type(exc).__name__}: {exc}"
            outcome = Outcome(ops=ops, work=0.0, failed=ops, problems=[problem])
            rep = Rep(wall, calibration, None, outcome, recorder)
        reps.append(rep)
        if len(reps) >= min_reps and time.perf_counter() - start + wall > seconds:
            return reps


def account(reps: Sequence[Rep], reference: Optional[str]) -> Dict[str, object]:
    """Operations attempted and failed; a rep whose checks fail fails whole."""
    attempted = failed = 0
    problems: List[str] = []
    for i, rep in enumerate(reps, start=1):
        found = list(rep.outcome.problems)
        if rep.digest != reference:
            found.append("output digest differs from the first rep")
        attempted += rep.outcome.ops
        failed += rep.outcome.ops if found else rep.outcome.failed
        problems += [f"rep {i}: {p}" for p in found]
    return {"attempted": attempted, "failed": failed, "problems": problems}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")
    # An enabled sink switches the event tier to its reference engine,
    # which would measure a different program.
    if not isinstance(telemetry.current(), telemetry.NullSink):
        raise SystemExit("the ambient telemetry sink is enabled")

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.smoke)
    workload.rep(workload.build(args.seed, True))  # warm-up: lazy imports and caches
    setup_raw_s = time.perf_counter() - STARTED
    calibration = calibrate.measure()
    out: Dict[str, object] = {
        "setup_s": scaled(setup_raw_s, calibration),
        "setup_raw_s": setup_raw_s,
        "numpy": numpy.__version__,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "measure":
        reps = untraced = timed_reps(workload, inputs, args.seconds, MIN_REPS, traced=False)
        metrics = {
            "wall_s": statistics.median(r.scaled_wall for r in reps),
            "ops_per_s": statistics.median(r.outcome.work / r.scaled_wall for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(fidelity())  # untimed, after the peak-RSS reading
    else:
        untraced = timed_reps(workload, inputs, args.seconds / 2, MIN_TRACE_REPS, traced=False)
        traced = timed_reps(workload, inputs, args.seconds / 2, MIN_TRACE_REPS, traced=True)
        reps = untraced + traced
        metrics = trace.run_metrics([(r.recorder, r.outcome.stats) for r in traced])
        root = statistics.median(
            scaled(next(s.seconds for s in r.recorder.spans if s.name == trace.ROOT), r.calibration)
            for r in traced
        )
        metrics["bench.trace_overhead"] = root / statistics.median(r.scaled_wall for r in untraced)
        chrome = trace.chrome_trace(traced[-1].recorder.spans)
        telemetry.validate_chrome_trace(chrome)
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.workload}.trace.json").write_text(json.dumps(chrome))

    out.update(account(reps, reps[0].digest))
    out.update(
        metrics=metrics,
        digest=reps[0].digest,
        walls=[r.wall for r in untraced],
        calibrations=[r.calibration for r in untraced],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
