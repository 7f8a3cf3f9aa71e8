"""The sweep engine: expand, preflight, shard, consolidate.

:func:`run_sweep` is the one execution path for every architecture
sweep in the repo — ``scripts/dse.py``, the table/figure experiment
drivers, and the bench harness all go through it:

1. :meth:`SweepSpec.expand` produces the design points (deterministic
   order);
2. the points are grouped by *chip* — every axis except the backend —
   and each chip is tiled and planned once: the plan depends only on
   :meth:`DesignPoint.sim_config`, which has no backend field, so every
   tier of one chip would plan identical inputs (``repro.sim.xcheck``
   holds one plan fixed across tiers the same way).  Each point is then
   evaluated by :func:`evaluate_point` on its chip's plan — statically
   verify (:func:`repro.analysis.system.analyze_plan`, ``plan`` family,
   against the point's own config), then simulate on the point's
   backend tier through the :mod:`repro.sim` registry;
3. chips shard across processes via
   :func:`repro.utils.parallel.run_sharded` (``workers=0`` serial) —
   evaluation order within a worker never affects results because every
   point is a pure function of its coordinates — and every row goes back
   to its place in expansion order;
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
from typing import Dict, List, Optional, Sequence

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
from repro.mapping.segmentation import SegmentPlan
from repro.mapping.tiling import tile_network
from repro.nn.workloads import NetworkSpec
from repro.sim.accounting import TimingMemo, plan_network
from repro.sim.backends import simulate
from repro.sim.config import SimConfig
from repro.utils.parallel import run_sharded


#: Mapping failures: the chip cannot hold the network (``infeasible``).
_MAPPING_ERRORS = (CapacityError, MappingError, ConfigurationError)


def _plan(
    network: NetworkSpec, cfg: SimConfig, times: Optional[TimingMemo] = None
) -> SegmentPlan:
    """Tile and plan ``network`` on the chip ``cfg`` describes, on the
    Eq. (1) memo ``times`` when one is given."""
    tiled = tile_network(network, cfg.capacity, cfg.array_size)
    return plan_network(tiled, cfg.strategy, cfg, times)


def evaluate_point(
    point: DesignPoint,
    *,
    keep_report: bool = False,
    plan: Optional[SegmentPlan] = None,
) -> PointResult:
    """Evaluate one design point end to end (pure; picklable; top-level).

    A given ``plan`` skips mapping, as ``simulate(plan=...)`` skips
    planning: it must be the plan of this point's chip (:func:`run_sweep`
    shares one across a chip's tiers).  Nothing mutates it.

    Never raises for per-point failures — the sweep must complete and
    account for every point.  Configuration errors in the *axes*
    themselves surface earlier, from :meth:`SweepSpec.expand`.
    """
    cfg = point.sim_config()
    network = point.build_network()
    if plan is None:
        try:
            plan = _plan(network, cfg)
        except _MAPPING_ERRORS as exc:
            return PointResult(
                point=point, status="infeasible",
                detail=f"{type(exc).__name__}: {exc}",
            )

    # The simulate() gate's check, run here so that a rejection becomes
    # a row that carries its rule ids instead of an exception.
    lint = analyze_plan(plan=plan, config=cfg, families=("plan",))
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
    area = area_breakdown(cfg)
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


def _evaluate_chip(
    points: Sequence[DesignPoint],
    *,
    keep_report: bool = False,
    times: TimingMemo,
) -> List[PointResult]:
    """Evaluate the points of one chip on one shared plan.

    ``points`` differ only in their backend; the chip is planned once,
    on the sweep's Eq. (1) memo ``times``.  When tiling or planning
    fails, every point records an ``infeasible`` row of that one error.
    """
    first = points[0]
    network, cfg = first.build_network(), first.sim_config()
    try:
        plan = _plan(network, cfg, times)
    except _MAPPING_ERRORS as exc:
        detail = f"{type(exc).__name__}: {exc}"
        return [
            PointResult(point=point, status="infeasible", detail=detail)
            for point in points
        ]
    return [
        evaluate_point(point, keep_report=keep_report, plan=plan)
        for point in points
    ]


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    keep_reports: bool = False,
    baselines: bool = True,
) -> DSEResult:
    """Run every design point of ``spec`` and consolidate.

    ``workers`` shards chips across processes (0 = serial; results are
    byte-identical either way).  ``keep_reports=True`` attaches each ok
    point's full :class:`~repro.sim.report.RunReport` — the experiment
    drivers need it; plain sweeps skip the pickling weight.
    ``baselines=False`` skips the baseline section (the node-level
    drivers don't use it).
    """
    points = spec.expand()
    # Expansion indices of each chip's points, in first-seen order.
    chips: Dict[DesignPoint, List[int]] = {}
    for i, point in enumerate(points):
        chips.setdefault(replace(point, backend=""), []).append(i)
    # One Eq. (1) memo for the whole sweep: chips of one CMem geometry
    # and timing share their layer times (a worker process plans on its
    # own copy, so ``workers`` never changes a result).
    times: TimingMemo = {}
    shards = run_sharded(
        partial(_evaluate_chip, keep_report=keep_reports, times=times),
        [[points[i] for i in indices] for indices in chips.values()],
        workers=workers,
    )
    rows: Dict[int, PointResult] = {}
    for indices, shard in zip(chips.values(), shards):
        rows.update(zip(indices, shard))
    results = [rows[i] for i in range(len(points))]
    base = network_baselines(spec.networks) if baselines else {}
    return DSEResult(spec=spec, points=results, baselines=base)


__all__ = [
    "evaluate_point",
    "network_baselines",
    "run_sweep",
]
