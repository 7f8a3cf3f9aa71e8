"""Table 4 — node comparison: scalar core vs MAICC node vs Neural Cache.

Workload: a CONV layer applying five 3x3x256 filters to a 9x9x256 ifmap,
8-bit operands.  The MAICC column runs the bit-true node simulator (its
accumulators are checked against NumPy); the scalar column measures the
software inner loop on the same pipeline; Neural Cache is the calibrated
primitive-cost model.

The three columns are cells sharded through the shared executor
(:func:`repro.utils.parallel.run_sharded`) — each cell is a pure
function of ``(node, seed)``, so ``workers`` shards the columns across
processes with byte-identical output.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.baselines.neural_cache import NeuralCacheModel
from repro.baselines.scalar_core import ScalarConvBaseline
from repro.core.node import MAICCNode, table4_workload
from repro.energy.area import node_area_mm2
from repro.experiments.report import ExperimentResult
from repro.sim.config import SimConfig
from repro.utils.parallel import run_sharded

PAPER = {
    "scalar": {"memory_kb": 20, "area_mm2": 0.052, "energy_j": 1.03e-4, "cycles": 1.24e7},
    "maicc": {"memory_kb": 20, "area_mm2": 0.114, "energy_j": 3.96e-6, "cycles": 59141},
    "neural_cache": {"memory_kb": 40, "area_mm2": 0.158, "energy_j": 4.03e-6, "cycles": 136416},
}

NODES = ("scalar", "maicc", "neural_cache")


def _evaluate_node(cell: Mapping[str, object]) -> Dict[str, object]:
    """One Table 4 column (pure; picklable; top-level)."""
    spec = table4_workload()
    config = SimConfig()
    constants = config.chip.constants
    node_kind = cell["node"]
    if node_kind == "scalar":
        scalar = ScalarConvBaseline().run(spec)
        scalar_area = constants.core_area_mm2 + 20 / 8 * constants.local_mem_area_mm2
        return {
            "node": "Scalar core", "memory_kb": 20,
            "area_mm2": round(scalar_area, 3),
            "energy_j": scalar.energy_j, "cycles": scalar.total_cycles,
            "raw": scalar,
        }
    if node_kind == "maicc":
        rng = np.random.default_rng(int(cell["seed"]))  # type: ignore[call-overload]
        weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
        bias = rng.integers(-1000, 1000, size=spec.m)
        ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
        node = MAICCNode(spec, weights, bias)
        maicc = node.run(ifmap)
        if not np.array_equal(maicc.psums, node.reference(ifmap)):
            raise AssertionError("MAICC node accumulators diverge from NumPy")
        seconds = maicc.stats.cycles * constants.cycle_seconds
        maicc_energy = (
            maicc.cmem_energy_pj * 1e-12
            + (constants.core_power_w + constants.local_mem_power_w) * seconds
            + constants.cmem_leakage_w_per_node * seconds
        )
        return {
            "node": "MAICC node", "memory_kb": 20,
            "area_mm2": round(node_area_mm2(config), 3),
            "energy_j": maicc_energy, "cycles": maicc.stats.cycles,
            "raw": maicc,
        }
    assert node_kind == "neural_cache", node_kind
    cache = NeuralCacheModel().run(spec)
    return {
        "node": "Neural Cache", "memory_kb": cache.memory_kb,
        "area_mm2": cache.area_mm2,
        "energy_j": cache.energy_j, "cycles": cache.cycles,
        "raw": cache,
    }


def run(seed: int = 42, *, workers: int = 0) -> ExperimentResult:
    cells = [{"node": kind, "seed": seed} for kind in NODES]
    columns = run_sharded(_evaluate_node, cells, workers=workers)

    result = ExperimentResult(
        experiment="table4",
        title="Table 4: node comparison (5 filters 3x3x256 on 9x9x256, int8)",
        columns=[
            "node", "memory_kb", "area_mm2", "energy_j", "cycles",
            "paper_energy_j", "paper_cycles",
        ],
    )
    for kind, col in zip(NODES, columns):
        result.add_row(
            node=col["node"], memory_kb=col["memory_kb"],
            area_mm2=col["area_mm2"],
            energy_j=col["energy_j"], cycles=col["cycles"],
            paper_energy_j=PAPER[kind]["energy_j"],
            paper_cycles=PAPER[kind]["cycles"],
        )
    maicc_cycles = columns[1]["cycles"]
    cache_cycles = columns[2]["cycles"]
    speedup = cache_cycles / maicc_cycles  # type: ignore[operator]
    result.notes.append(
        f"MAICC vs Neural Cache speedup: {speedup:.2f}x (paper: 2.3x)"
    )
    result.raw = {
        "maicc": columns[1]["raw"],
        "scalar": columns[0]["raw"],
        "neural_cache": columns[2]["raw"],
    }
    return result
