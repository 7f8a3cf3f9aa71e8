"""Table 5 — impact of dynamic and static CMem scheduling.

Sweeps the issue-queue depth (0/1/2/4) and the number of register-file
write-back ports (1/2) on the Table 4 workload, with and without static
(compile-time) instruction reordering.  All runs execute the same
functional kernel on the cycle-level pipeline; psums are identical by
construction (the scheduler is dependence-safe).

Each scheduling configuration is a cell sharded through the shared
executor (:func:`repro.utils.parallel.run_sharded`) — cells are pure
functions of ``(seed, queue, wb_ports, static)``, so ``workers`` shards
the 14 pipeline runs across processes with byte-identical output.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.node import MAICCNode, table4_workload
from repro.experiments.report import ExperimentResult
from repro.riscv.pipeline import PipelineConfig
from repro.utils.parallel import run_sharded

PAPER: Dict[Tuple[int, int, bool], int] = {
    # (queue, wb_ports, static) -> cycles
    (0, 1, False): 61895, (1, 1, False): 60761, (2, 1, False): 59141,
    (4, 1, False): 59141, (1, 2, False): 60032, (2, 2, False): 58250,
    (4, 2, False): 58250,
    (0, 1, True): 52098, (1, 1, True): 50802, (2, 1, True): 50154,
    (4, 1, True): 50154, (1, 2, True): 50073, (2, 2, True): 49263,
    (4, 2, True): 49263,
}


def _evaluate_schedule(cell: Mapping[str, object]) -> Dict[str, object]:
    """One scheduling configuration (pure; picklable; top-level)."""
    spec = table4_workload()
    rng = np.random.default_rng(int(cell["seed"]))  # type: ignore[call-overload]
    weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-1000, 1000, size=spec.m)
    ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
    node = MAICCNode(spec, weights, bias)
    queue = int(cell["queue"])  # type: ignore[call-overload]
    wb = int(cell["wb_ports"])  # type: ignore[call-overload]
    static = bool(cell["static"])
    cfg = PipelineConfig(cmem_queue_size=queue, writeback_ports=wb)
    res = node.run(ifmap, static=static, pipeline=cfg)
    if not np.array_equal(res.psums, node.reference(ifmap)):
        raise AssertionError(
            f"scheduling config q={queue} wb={wb} static={static} "
            "changed the results"
        )
    return {"queue": queue, "wb_ports": wb, "static": static,
            "cycles": res.stats.cycles}


def run(seed: int = 42, *, workers: int = 0) -> ExperimentResult:
    cells = [
        {"seed": seed, "queue": queue, "wb_ports": wb, "static": static}
        for static in (False, True)
        for wb in (1, 2)
        for queue in (0, 1, 2, 4)
        if (queue, wb, static) in PAPER
    ]
    rows = run_sharded(_evaluate_schedule, cells, workers=workers)

    result = ExperimentResult(
        experiment="table5",
        title="Table 5: dynamic + static scheduling (cycles, Table 4 workload)",
        columns=["queue", "wb_ports", "static", "cycles", "paper_cycles"],
    )
    for row in rows:
        key = (row["queue"], row["wb_ports"], row["static"])
        result.add_row(
            queue=row["queue"], wb_ports=row["wb_ports"], static=row["static"],
            cycles=row["cycles"],
            paper_cycles=PAPER[key],  # type: ignore[index]
        )
    base = result.row_by("queue", 0)["cycles"]
    best_dyn = min(r["cycles"] for r in result.rows if not r["static"])
    best_static = min(r["cycles"] for r in result.rows if r["static"])
    result.notes.append(
        f"dynamic scheduling gain: {(1 - best_dyn / base) * 100:.1f}% "
        "(paper: ~4-6%)"
    )
    result.notes.append(
        f"static scheduling gain over best dynamic: "
        f"{(1 - best_static / best_dyn) * 100:.1f}% (paper: ~16%)"
    )
    return result
