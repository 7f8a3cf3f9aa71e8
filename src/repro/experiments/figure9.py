"""Figure 9 — per-iteration cycle breakdown of layer 9 (conv2_4).

For each mapping strategy, reports how an intermediate computing core of
layer 9 spends its steady-state iteration: computing, sending ifmap
vectors downstream, sending finished ofmap pixels, and waiting for ifmap
vectors.  The paper's qualitative findings: send costs are stable across
strategies, compute scales inversely with allocated nodes, and waiting
dominates under the single-layer and greedy strategies.

The three strategy runs share Table 6's :class:`~repro.dse.SweepSpec`
on the sweep engine (``keep_reports=True`` keeps each run's segment
timings).  The breakdown is defined by the tandem-queue model, so it
re-simulates layer 9's segment on the streaming tier whatever tier the
run totals came from: the figure does not depend on the tier.
"""

from __future__ import annotations

from typing import Optional

from repro.core.streaming import SegmentSimulator
from repro.dse.engine import run_sweep
from repro.experiments.report import ExperimentResult
from repro.experiments.table6 import STRATEGIES, sweep as table6_sweep

LAYER_INDEX = 9  # conv2_4


def run(*, backend: Optional[str] = None, workers: int = 0) -> ExperimentResult:
    """``backend`` names the repro.sim tier the run totals come from; the
    per-iteration breakdown itself is defined by the streaming model and
    re-simulates the one segment.  ``workers`` shards the strategy runs."""
    dse = run_sweep(
        table6_sweep(backend), workers=workers,
        keep_reports=True, baselines=False,
    )
    runs = {pr.point.strategy: pr.report for pr in dse.points}
    result = ExperimentResult(
        experiment="figure9",
        title="Figure 9: per-iteration breakdown of layer 9 (cycles)",
        columns=[
            "strategy", "nodes", "compute", "send_ifmap", "send_ofmap",
            "wait_ifmap", "other", "total",
        ],
    )
    for strategy in STRATEGIES:
        run_result = runs[strategy]
        for seg_run in run_result.runs:
            if LAYER_INDEX not in seg_run.segment.allocation.nodes:
                continue
            breakdown = SegmentSimulator(seg_run.timings).core_breakdown(LAYER_INDEX)
            result.add_row(
                strategy=strategy,
                nodes=run_result.nodes_of(LAYER_INDEX),
                compute=breakdown.compute,
                send_ifmap=breakdown.send_ifmap,
                send_ofmap=breakdown.send_ofmap,
                wait_ifmap=breakdown.wait_ifmap,
                other=breakdown.other,
                total=breakdown.total,
            )
            break
    waits = {row["strategy"]: row["wait_ifmap"] for row in result.rows}
    result.notes.append(
        "paper shape: waiting dominates in single-layer and greedy; "
        f"measured waits: { {k: round(v) for k, v in waits.items()} }"
    )
    return result
