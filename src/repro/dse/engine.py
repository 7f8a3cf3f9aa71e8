"""The sweep engine: expand, preflight, shard, consolidate.

:func:`run_sweep` is the one execution path for every architecture
sweep in the repo — ``scripts/dse.py``, the table/figure experiment
drivers, and the bench harness all go through it:

1. :meth:`SweepSpec.expand` produces the design points (deterministic
   order);
2. each point is evaluated *independently* by :func:`evaluate_point` —
   map, plan, statically verify (:func:`repro.analysis.system.analyze_plan`,
   ``plan`` family, with the point's own DRAM geometry), then simulate
   on the point's backend tier through the :mod:`repro.sim` registry;
3. points shard across processes via
   :func:`repro.utils.parallel.run_sharded` (``workers=0`` serial) —
   evaluation order within a worker never affects results because every
   point is a pure function of its coordinates;
4. the parent consolidates into a :class:`DSEResult`, attaching the
   per-network baseline section (computed once, serially — the scalar
   baseline memoizes a pipeline measurement that must not be repeated
   per worker).

Non-simulable points do not abort the sweep: mapping failures become
``infeasible`` rows, verifier rejections become ``rejected`` rows with
their rule IDs, and backend failures become ``error`` rows.  The JSON
artifact therefore always accounts for every expanded point.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Sequence

from repro.analysis.system import analyze_plan
from repro.baselines.neural_cache import NeuralCacheModel
from repro.baselines.scalar_core import ScalarConvBaseline
from repro.dse.result import DSEResult, PointResult
from repro.dse.spec import NETWORKS, DesignPoint, SweepSpec
from repro.energy.area import area_breakdown
from repro.errors import (
    BackendError,
    CapacityError,
    ConfigurationError,
    MappingError,
    SimulationError,
)
from repro.mapping.tiling import tile_network
from repro.sim.accounting import plan_network
from repro.sim.backends import simulate
from repro.utils.parallel import run_sharded


def evaluate_point(point: DesignPoint, *, keep_report: bool = False) -> PointResult:
    """Evaluate one design point end to end (pure; picklable; top-level).

    Never raises for per-point failures — the sweep must complete and
    account for every point.  Configuration errors in the *axes*
    themselves surface earlier, from :meth:`SweepSpec.expand`.
    """
    cfg = point.sim_config()
    network = point.build_network()
    try:
        tiled = tile_network(network, cfg.capacity, cfg.array_size)
        plan = plan_network(tiled, cfg.strategy, cfg)
    except (CapacityError, MappingError, ConfigurationError) as exc:
        return PointResult(
            point=point, status="infeasible",
            detail=f"{type(exc).__name__}: {exc}",
        )

    # Static preflight with the point's own DRAM geometry — richer than
    # the simulate() gate (which assumes the default controller), so the
    # per-channel bandwidth budget is checked against *this* machine.
    lint = analyze_plan(
        plan=plan, config=cfg, dram=point.dram_config(), families=("plan",)
    )
    if not lint.ok:
        rules = tuple(sorted({d.rule for d in lint.errors}))
        return PointResult(
            point=point, status="rejected",
            detail=lint.errors[0].message, findings=rules,
        )

    try:
        report = simulate(
            network,
            backend=point.backend,
            config=replace(cfg, preflight=False),  # verified above
            plan=plan,
        )
    except (SimulationError, BackendError, MappingError) as exc:
        return PointResult(
            point=point, status="error",
            detail=f"{type(exc).__name__}: {exc}",
        )

    energy = report.energy
    area = area_breakdown(cfg.chip.constants)
    return PointResult(
        point=point,
        status="ok",
        latency_ms=report.latency_ms,
        total_cycles=report.total_cycles,
        energy_j={
            "dram": energy.dram, "cmem": energy.cmem, "noc": energy.noc,
            "core": energy.core, "llc": energy.llc,
        },
        area_mm2={
            "cmem": area.cmem, "core": area.core,
            "local_mem": area.local_mem, "noc": area.noc, "llc": area.llc,
        },
        average_power_w=report.average_power_w,
        throughput_samples_s=report.throughput_samples_s,
        gops_per_watt=report.gops_per_watt(include_dram=False),
        report=report if keep_report else None,
    )


def network_baselines(networks: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """Scalar-core and Neural Cache references per network.

    Both are the calibrated *single-node* models of Table 4 applied
    layer by layer (one node runs the whole network serially) — the
    same comparison basis the paper uses for its node-level table,
    extended to whole networks so every sweep row gets an
    ``energy_gain_vs_*`` / ``speedup_vs_*`` column.
    """
    scalar = ScalarConvBaseline()  # memoizes the pipeline measurement
    cache = NeuralCacheModel()
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(networks)):
        spec = NETWORKS[name]()
        totals = {
            "scalar_cycles": 0.0, "scalar_energy_j": 0.0,
            "neural_cache_cycles": 0.0, "neural_cache_energy_j": 0.0,
        }
        for layer in spec:
            s = scalar.run(layer)
            totals["scalar_cycles"] += s.total_cycles
            totals["scalar_energy_j"] += s.energy_j
            n = cache.run(layer)
            totals["neural_cache_cycles"] += float(n.cycles)
            totals["neural_cache_energy_j"] += n.energy_j
        totals["total_macs"] = float(spec.total_macs)
        out[name] = totals
    return out


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    keep_reports: bool = False,
    baselines: bool = True,
) -> DSEResult:
    """Run every design point of ``spec`` and consolidate.

    ``workers`` shards points across processes (0 = serial; results are
    byte-identical either way).  ``keep_reports=True`` attaches each ok
    point's full :class:`~repro.sim.report.RunReport` — the experiment
    drivers need it; plain sweeps skip the pickling weight.
    ``baselines=False`` skips the baseline section (the node-level
    drivers don't use it).
    """
    points = spec.expand()
    results = run_sharded(
        partial(evaluate_point, keep_report=keep_reports),
        points,
        workers=workers,
    )
    base = network_baselines(spec.networks) if baselines else {}
    return DSEResult(spec=spec, points=results, baselines=base)


__all__ = [
    "evaluate_point",
    "network_baselines",
    "run_sweep",
]
