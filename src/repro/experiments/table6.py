"""Table 6 — ResNet18 layer mapping strategies.

Maps the 20-layer ResNet18 workload with the single-layer, greedy, and
heuristic strategies and reports per-layer node-group sizes, per-segment
latencies, and total inference latency.

The three strategy runs are one :class:`~repro.dse.SweepSpec` with a
``strategies`` axis, executed on the shared sweep engine — ``workers``
shards the strategies across processes with byte-identical output
(every run is a pure function of its design point).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dse.engine import run_sweep
from repro.dse.spec import SweepSpec
from repro.experiments.report import ExperimentResult
from repro.nn.workloads import resnet18_spec
from repro.sim.backends import DEFAULT_BACKEND
from repro.sim.report import RunReport

PAPER_TOTAL_MS = {"single-layer": 24.078, "greedy": 10.410, "heuristic": 5.138}
PAPER_NODES = {
    "single-layer": [65, 65, 65, 65, 129, 129, 129, 129, 129, 129, 129, 129,
                     129, 129, 172, 172, 208, 208, 208, 22],
    "greedy": [5, 5, 5, 5, 2, 8, 14, 14, 14, 4, 27, 53, 53, 53, 12, 172,
               208, 208, 208, 22],
    "heuristic": [33, 33, 33, 33, 5, 16, 44, 44, 44, 8, 27, 53, 53, 53, 12,
                  172, 208, 208, 208, 22],
}

STRATEGIES = ("single-layer", "greedy", "heuristic")


def sweep(backend: Optional[str] = None) -> SweepSpec:
    """The Table 6 runs as a declarative sweep (strategy axis only)."""
    return SweepSpec(
        name="table6",
        networks=("resnet18",),
        backends=(backend or DEFAULT_BACKEND,),
        strategies=STRATEGIES,
    )


def run(*, backend: Optional[str] = None, workers: int = 0) -> ExperimentResult:
    """``backend`` names the repro.sim fidelity tier to simulate on;
    ``workers`` shards the strategy runs across processes."""
    network = resnet18_spec()
    dse = run_sweep(
        sweep(backend), workers=workers, keep_reports=True, baselines=False
    )
    runs: Dict[str, RunReport] = {
        pr.point.strategy: pr.report for pr in dse.points
    }

    result = ExperimentResult(
        experiment="table6",
        title="Table 6: ResNet18 mapping strategies (#node-group sizes, latency)",
        columns=[
            "index", "name",
            "single_nodes", "greedy_nodes", "heuristic_nodes",
            "paper_single", "paper_greedy", "paper_heuristic",
        ],
    )
    for spec in network:
        i = spec.index - 1
        result.add_row(
            index=spec.index,
            name=spec.name,
            single_nodes=runs["single-layer"].nodes_of(spec.index),
            greedy_nodes=runs["greedy"].nodes_of(spec.index),
            heuristic_nodes=runs["heuristic"].nodes_of(spec.index),
            paper_single=PAPER_NODES["single-layer"][i],
            paper_greedy=PAPER_NODES["greedy"][i],
            paper_heuristic=PAPER_NODES["heuristic"][i],
        )
    for name in STRATEGIES:
        run_result = runs[name]
        segments = [
            ([s.index for s in r.segment.layers], round(r.cycles / 1e6, 3))
            for r in run_result.runs
        ]
        result.notes.append(
            f"{name}: {run_result.latency_ms:.3f} ms "
            f"(paper {PAPER_TOTAL_MS[name]:.3f} ms); segments: {segments}"
        )
    result.raw = runs
    return result
