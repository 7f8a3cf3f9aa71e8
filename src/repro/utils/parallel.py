"""The shared process-parallel executor every sweep-shaped run sits on.

``run_sharded(fn, items, workers=N)`` is the one parallel primitive in
the repo.  It was extracted from ``repro.fleet.simulator`` (PR 9's
hand-rolled fork pool) so the fleet, the design-space exploration
engine (``repro.dse``), and the experiment drivers all shard work the
same way — and inherit the same determinism guarantee:

* ``workers=0`` (the default) runs ``[fn(x) for x in items]`` in the
  calling process — no pool, no pickling, trivially deterministic.
* ``workers=N`` forks ``min(N, len(items), os.cpu_count())`` worker
  processes and maps ``fn`` over ``items`` with
  :meth:`multiprocessing.pool.Pool.map`, which **preserves input order**
  regardless of completion order.  When that minimum is 1 — one item,
  or one CPU — the call runs serially instead: a lone worker process
  would only add fork and pickling cost (docs/DSE.md records the
  measured crossover).

Because every ``fn`` in this repo is a pure function of its item (all
randomness is seeded per item, nothing reads the wall clock), the two
paths return element-wise identical results, and any deterministic
fold over them — :meth:`repro.telemetry.MetricsRegistry.merged` or a
plain list — produces byte-identical artifacts.  The fleet tests and the CI
``fleet-smoke`` / ``dse-smoke`` jobs pin exactly that.

Requirements on ``fn`` and ``items`` when ``workers > 0``: ``fn`` must
be importable at module top level (a bound method of a picklable object
or a :func:`functools.partial` of a top-level function also works) and
items/results must pickle.  The ``fork`` start method keeps imports and
read-only state shared with the parent for free; on platforms without
``fork`` (Windows) the executor silently degrades to the serial path
rather than changing results.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Sequence, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

#: The start method the executor uses.  ``fork`` is mandatory for the
#: determinism story: workers inherit the parent's already-imported
#: modules and constants instead of re-running import-time code.
START_METHOD = "fork"


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return START_METHOD in multiprocessing.get_all_start_methods()


def run_sharded(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int = 0,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally sharded across processes.

    Returns results in input order on both paths.  ``workers=N`` forks
    ``min(N, len(items), os.cpu_count())`` processes; when that is 1 (or
    ``workers=0``, or the platform lacks fork) the map runs serially
    in-process.  The caller's merge therefore folds results in the same
    order either way — the serial==parallel byte-identity guarantee
    documented in docs/DSE.md.
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    items = list(items)
    processes = min(workers, len(items), os.cpu_count() or 1)
    if processes > 1 and fork_available():
        ctx = multiprocessing.get_context(START_METHOD)
        with ctx.Pool(processes=processes) as pool:
            # Pool.map preserves input order, so downstream merges fold
            # shards in index order — identical to the serial path.
            return pool.map(fn, items)
    return [fn(item) for item in items]


__all__ = ["START_METHOD", "fork_available", "run_sharded"]
