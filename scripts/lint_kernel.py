#!/usr/bin/env python
"""Lint (and optionally schedule) assembled MAICC kernels from the shell.

Examples::

    # Lint an assembly file, human-readable diagnostics.
    PYTHONPATH=src python scripts/lint_kernel.py kernel.s

    # Lint a generated Algorithm-1 conv kernel, schedule it, and confirm
    # the predicted cycle counts against the pipeline simulator.
    PYTHONPATH=src python scripts/lint_kernel.py --demo-conv --schedule --confirm

    # Machine-readable output for CI.
    PYTHONPATH=src python scripts/lint_kernel.py kernel.s --json

Exit status: 0 clean, 1 lint errors (or, with ``--strict``, warnings),
2 usage/assembly failure, 3 failed ``--confirm`` cross-check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import (
    AnalysisConfig,
    LintReport,
    schedule_kernel,
    verify_program,
)
from repro.errors import ReproError
from repro.riscv.assembler import assemble
from repro.riscv.core import Core
from repro.riscv.isa import Instruction


def _demo_conv_program() -> List[Instruction]:
    """A small generated Algorithm-1 conv kernel (4x4x32, 2 filters)."""
    from repro.core.conv_kernel import ConvKernelGenerator
    from repro.core.datalayout import plan_node_layout
    from repro.nn.workloads import ConvLayerSpec

    spec = ConvLayerSpec(
        index=0, name="lint-demo", h=4, w=4, c=32, m=2, r=3, s=3,
        stride=1, padding=0,
    )
    generator = ConvKernelGenerator(plan_node_layout(spec, spec.m))
    return generator.instructions()


def _simulated_cycles(program: List[Instruction]) -> int:
    """Run a program on the pipeline with a null NoC (timing only)."""
    core = Core(remote_handler=lambda is_store, addr, size, value: 0)
    return core.run(program).cycles


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_kernel",
        description="Static hazard/CMem verifier for assembled MAICC programs.",
    )
    parser.add_argument("files", nargs="*", help="assembly files to lint")
    parser.add_argument(
        "--demo-conv", action="store_true",
        help="lint a generated Algorithm-1 conv kernel instead of files",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON diagnostics")
    parser.add_argument(
        "--schedule", action="store_true",
        help="also run the static list scheduler and report predicted savings",
    )
    parser.add_argument(
        "--confirm", action="store_true",
        help="with --schedule: run both programs on the pipeline simulator "
        "and check the predictions (kernels must be data-independent)",
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat warnings as errors"
    )
    parser.add_argument(
        "--stall-threshold", type=int, default=8, metavar="N",
        help="minimum stall cycles before a RAW/WAW advisory (default 8)",
    )
    args = parser.parse_args(argv)

    if not args.files and not args.demo_conv:
        parser.error("give assembly files or --demo-conv")

    config = AnalysisConfig(stall_threshold=args.stall_threshold)
    targets: List[tuple] = []
    try:
        if args.demo_conv:
            targets.append(("<demo-conv>", _demo_conv_program()))
        for path in args.files:
            with open(path) as handle:
                targets.append((path, assemble(handle.read())))
    except (OSError, ReproError) as exc:
        print(f"lint_kernel: {exc}", file=sys.stderr)
        return 2

    exit_code = 0
    for name, program in targets:
        report: LintReport = verify_program(program, config)
        payload = {"program": name, **report.to_dict()}

        if args.schedule:
            sched = schedule_kernel(program, analysis_config=config)
            payload["schedule"] = sched.to_dict()
            if args.confirm:
                baseline_sim = _simulated_cycles(program)
                scheduled_sim = _simulated_cycles(sched.program)
                confirmed = (
                    baseline_sim == sched.baseline.cycles
                    and scheduled_sim == sched.scheduled.cycles
                )
                payload["confirm"] = {
                    "baseline_simulated": baseline_sim,
                    "scheduled_simulated": scheduled_sim,
                    "confirmed": confirmed,
                }
                if not confirmed:
                    exit_code = max(exit_code, 3)

        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"== {name}")
            print(report.render())
            if args.schedule:
                sched_info = payload["schedule"]
                line = (
                    f"schedule: {sched_info['baseline']['cycles']} -> "
                    f"{sched_info['scheduled']['cycles']} cycles predicted "
                    f"({sched_info['predicted_saving']} saved, "
                    f"{sched_info['speedup']:.2f}x)"
                )
                if "confirm" in payload:
                    conf = payload["confirm"]
                    line += (
                        "; pipeline confirms" if conf["confirmed"]
                        else "; PIPELINE DISAGREES: "
                        f"{conf['baseline_simulated']} / "
                        f"{conf['scheduled_simulated']} simulated"
                    )
                print(line)

        if report.errors or (args.strict and report.warnings):
            exit_code = max(exit_code, 1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
