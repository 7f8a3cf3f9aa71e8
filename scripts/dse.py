#!/usr/bin/env python3
"""Run an architecture design-space sweep on the parallel sweep engine.

Expands a named :class:`repro.dse.SweepSpec` (see ``--list-sweeps``),
evaluates every design point — map, statically verify, simulate on the
point's backend tier — sharded across ``--workers`` processes, and
consolidates the energy/area/latency tables, the paper-reference
comparison columns, and the per-(network, backend) Pareto frontiers.

All artifacts are byte-deterministic: the same sweep at any worker
count serializes to identical bytes (the CI ``dse-smoke`` job runs the
smoke sweep serially and with ``--workers 4`` and diffs the JSON).

Run:  PYTHONPATH=src python scripts/dse.py --sweep smoke --pareto
      PYTHONPATH=src python scripts/dse.py --sweep frontier --workers 4 \\
          --json-out dse.json --html-out dse.html
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dse import SWEEPS, run_sweep  # noqa: E402
from repro.obs.html import render_html  # noqa: E402
from repro.obs.report import build_dse_report, validate_report  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--sweep", choices=sorted(SWEEPS), default="smoke",
        help="named sweep from repro.dse.presets (default: smoke)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="shard design points across N processes "
             "(0 = serial; output is byte-identical either way)",
    )
    parser.add_argument(
        "--pareto", action="store_true",
        help="print the per-(network, backend) Pareto frontiers",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the consolidated DSEResult JSON here",
    )
    parser.add_argument(
        "--html-out", metavar="PATH", default=None,
        help="write the obs dashboard (dse report kind) here",
    )
    parser.add_argument(
        "--list-sweeps", action="store_true", help="list sweep names"
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"workers must be >= 0, got {args.workers}")

    if args.list_sweeps:
        for name in sorted(SWEEPS):
            spec = SWEEPS[name]
            print(f"{name}: {spec.size} points "
                  f"({', '.join(spec.networks)} on "
                  f"{', '.join(spec.backends)})")
        return 0

    spec = SWEEPS[args.sweep]
    result = run_sweep(spec, workers=args.workers)
    counts = {"ok": 0, "infeasible": 0, "rejected": 0, "error": 0}
    for point in result.points:
        counts[point.status] += 1
    print(
        f"{spec.name}: {len(result.points)} points "
        f"({counts['ok']} ok, {counts['infeasible']} infeasible, "
        f"{counts['rejected']} rejected, {counts['error']} error)"
    )

    if args.pareto:
        for group, members in result.pareto_groups().items():
            print(f"\n{group} frontier ({len(members)} points):")
            for r in members:
                print(
                    f"  {r.point.point_id}: {r.latency_ms:.4f} ms, "
                    f"{r.total_energy_j:.6g} J, "
                    f"{r.total_area_mm2:.2f} mm^2"
                )

    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(result.to_json())
        print(f"wrote {args.json_out}")
    if args.html_out:
        doc = build_dse_report(result)
        validate_report(doc)
        with open(args.html_out, "w") as f:
            f.write(render_html(doc))
        print(f"wrote {args.html_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
