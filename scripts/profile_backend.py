#!/usr/bin/env python3
"""Profile one repro.sim backend run and print the top-N cumulative table.

Perf work on the simulation tiers starts from data, not guesses: this
script runs ``simulate(network, backend=...)`` under :mod:`cProfile` and
prints the top functions by cumulative time, plus a one-line wall-clock
summary that matches what ``scripts/bench.py`` records in the
``backends`` section of ``BENCH.json``.

Examples:

    PYTHONPATH=src python scripts/profile_backend.py --backend event
    PYTHONPATH=src python scripts/profile_backend.py \
        --backend streaming --network small_cnn --top 15
    PYTHONPATH=src python scripts/profile_backend.py \
        --backend event --sort tottime --out profile.txt
    PYTHONPATH=src python scripts/profile_backend.py \
        --backend event --network vgg11 --sort tottime

``--network`` takes any network of ``repro.dse.spec.NETWORKS``; vgg11's
fully connected layers run in tiled passes.

The resnet18 event-tier profile that motivated the event tier's
station-scan engine is checked in at ``docs/PROFILES.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dse.spec import NETWORKS

SORTS = ("cumulative", "tottime", "ncalls")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--backend",
        default="event",
        help="backend tier to profile (see repro.sim.available_backends)",
    )
    parser.add_argument("--network", default="resnet18", choices=sorted(NETWORKS))
    parser.add_argument(
        "--strategy", default=None, help="mapping strategy override"
    )
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument(
        "--batch-requests",
        type=int,
        default=None,
        help="weight-stationary request batching factor (SimConfig.batch_requests)",
    )
    parser.add_argument("--top", type=int, default=20, help="rows to print")
    parser.add_argument("--sort", default="cumulative", choices=SORTS)
    parser.add_argument(
        "--out", default=None, help="also write the table to this file"
    )
    args = parser.parse_args()

    from repro.sim import available_backends, simulate

    if args.backend not in available_backends():
        parser.error(
            f"unknown backend {args.backend!r}; "
            f"choose from {available_backends()}"
        )

    network = NETWORKS[args.network]()
    kwargs = dict(
        backend=args.backend, strategy=args.strategy, batch=args.batch
    )
    if args.batch_requests is not None:
        kwargs["batch_requests"] = args.batch_requests

    # Untimed warm-up run so one-time costs (imports, memoized planning)
    # don't pollute the profile of the steady-state hot path.
    simulate(network, **kwargs)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    report = simulate(network, **kwargs)
    profiler.disable()
    wall = time.perf_counter() - t0

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    table = buf.getvalue()

    header = (
        f"backend={args.backend} network={args.network} "
        f"strategy={report.strategy} batch={report.batch} "
        f"wall={wall:.3f}s total_cycles={report.total_cycles:.1f}"
    )
    print(header)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(header + "\n" + table)
        print(f"wrote {os.path.abspath(args.out)}")


if __name__ == "__main__":
    main()
