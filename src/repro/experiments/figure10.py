"""Figure 10 — area and energy breakdown of the 210-core chip.

One design point on the sweep engine: the energy split comes from the
simulated heuristic ResNet18 run, the area split from the same chip's
:func:`repro.energy.area.area_breakdown`.
"""

from __future__ import annotations

from typing import Optional

from repro.dse.engine import run_sweep
from repro.energy.area import area_breakdown
from repro.experiments.report import ExperimentResult
from repro.experiments.table7 import sweep as table7_sweep

PAPER_AREA = {"cmem": 0.65, "core": 0.11, "local_mem": 0.10, "noc": 0.09, "llc": 0.05}
PAPER_ENERGY = {"dram": 0.71, "cmem": 0.11, "noc": 0.11}


def run(*, backend: Optional[str] = None, workers: int = 0) -> ExperimentResult:
    """``backend`` names the repro.sim fidelity tier to simulate on."""
    dse = run_sweep(
        table7_sweep(backend), workers=workers,
        keep_reports=True, baselines=False,
    )
    point = dse.points[0]
    area = area_breakdown(point.point.sim_config())
    energy = point.report.energy

    result = ExperimentResult(
        experiment="figure10",
        title="Figure 10: area and energy breakdown",
        columns=["block", "area_fraction", "paper_area", "energy_fraction", "paper_energy"],
    )
    area_fr = area.fractions()
    energy_fr = energy.fractions()
    for block in ["cmem", "core", "local_mem", "noc", "llc", "dram"]:
        result.add_row(
            block=block,
            area_fraction=round(area_fr[block], 3) if block in area_fr else "",
            paper_area=PAPER_AREA.get(block, ""),
            energy_fraction=round(energy_fr[block], 3) if block in energy_fr else "",
            paper_energy=PAPER_ENERGY.get(block, ""),
        )
    result.notes.append(f"total area: {area.total:.1f} mm^2 (paper: 28 mm^2)")
    result.raw = {"area": area, "energy": energy}
    return result
