"""Design-space exploration: declarative sweeps on the shared executor.

``SweepSpec`` declares the axes; ``run_sweep`` expands, plans each chip
once, preflights, and shards the chips (``repro.utils.parallel``);
``DSEResult`` consolidates
energy/area/latency with baseline and paper-reference comparisons and
extracts the Pareto frontier.  ``scripts/dse.py`` is the CLI;
``scripts/report.py dse`` renders the HTML dashboard.  See docs/DSE.md.
"""

from repro.dse.engine import (
    evaluate_point,
    network_baselines,
    run_sweep,
)
from repro.dse.presets import SWEEPS
from repro.dse.result import (
    DSEResult,
    PointResult,
    add_compare_ref,
    compare_ref,
    pareto_frontier,
)
from repro.dse.spec import NETWORKS, DesignPoint, SweepSpec

__all__ = [
    "NETWORKS",
    "SWEEPS",
    "DSEResult",
    "DesignPoint",
    "PointResult",
    "SweepSpec",
    "add_compare_ref",
    "compare_ref",
    "evaluate_point",
    "network_baselines",
    "pareto_frontier",
    "run_sweep",
]
