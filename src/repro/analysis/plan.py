"""Whole-chip plan verification — the ``PLAN6xx`` rules.

PR 2's kernel verifier checks one program on one core; this module
checks a *plan*: the :class:`~repro.mapping.segmentation.SegmentPlan`
(and, for multi-DNN deployments, several co-resident plans) that the
``repro.sim`` tiers are about to spend cycles simulating.  All resource
math reuses :mod:`repro.sim.accounting` and
:class:`~repro.mapping.capacity.CapacityModel`, so the checker and the
simulators cannot disagree about what a plan costs.

The checks (catalog in :mod:`repro.analysis.rules`, worked diagnostics
in ``docs/ANALYSIS.md``):

* ``PLAN601`` — a layer's node group is below the split-filter capacity
  floor: its filters cannot fit the group's CMems.
* ``PLAN602`` — a segment (or the co-resident tenants together) needs
  more compute tiles than the array/region provides.
* ``PLAN603`` — the layer precision leaves no filter slots per slice
  (the ifmap reservation consumes every row).
* ``PLAN604`` — a segment stages more weight bytes than the raw CMem
  bytes of its allocated computing cores.
* ``PLAN605`` — sustained DRAM demand across co-resident tenants
  exceeds the aggregate channel bandwidth budget (warning).
* ``PLAN606`` — two tenants' snake-walk regions overlap.

Plans produced by :func:`repro.sim.accounting.plan_network` satisfy the
capacity floors by construction; the error rules exist to catch
hand-built, mutated, or mis-partitioned plans *before* a simulation (or
a serving admission) runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from repro.nn.workloads import ConvLayerSpec

from repro.analysis.diagnostics import LintReport
from repro.analysis.rules import rule
from repro.dram.controller import DRAMConfig
from repro.errors import CapacityError
from repro.mapping.capacity import CapacityModel
from repro.mapping.segmentation import Segment, SegmentPlan
from repro.sim.accounting import boundary_bytes, segment_weight_bytes
from repro.sim.config import SimConfig

@dataclass(frozen=True)
class ResidentPlan:
    """One tenant's mapped plan plus its snake-walk region offset.

    ``region_start`` is the tenant's offset into the global snake walk
    (the same number :meth:`repro.serving.policies.ElasticPolicy.region_starts`
    and :meth:`repro.core.multi_dnn.MultiDNNScheduler.run` hand to
    :func:`~repro.mapping.placement.zigzag_placement`).
    """

    name: str
    plan: SegmentPlan
    region_start: int = 0

    @property
    def footprint(self) -> int:
        """Tiles the resident occupies.

        Segments run sequentially in time and reuse the same region, so
        the widest segment sizes the tenant's tile interval.
        """
        if not self.plan.segments:
            return 0
        return max(segment.total_nodes for segment in self.plan.segments)


@lru_cache(maxsize=4096)
def _split_floor(capacity: CapacityModel, spec: ConvLayerSpec) -> int:
    """Memoized :meth:`CapacityModel.min_nodes_split`.

    Both arguments are frozen dataclasses, and the pre-flight gate
    re-checks the same layer specs on every ``simulate()`` call — the
    memo keeps the gate's steady-state cost well under 1% of the
    analytic tier.  Raises :class:`CapacityError` like the original
    (``lru_cache`` does not cache exceptions, which is fine: the raising
    case is the error path).
    """
    return capacity.min_nodes_split(spec)


def dram_bandwidth_budget(dram: DRAMConfig) -> float:
    """Aggregate sustainable DRAM bytes/cycle.

    Streaming row-hit reads: one ``line_bytes`` line per
    ``tcas + tburst`` cycles per channel.  Deliberately conservative
    (no bank-level pipelining credit) so the ``PLAN605`` warning fires
    before the controller model would actually saturate.
    """
    return dram.channels * dram.line_bytes / (dram.tcas + dram.tburst)


class PlanVerifier:
    """Static resource checks over one or more mapped plans."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = config or SimConfig()
        self.report = LintReport(program_length=0)

    # -- emission --------------------------------------------------------------

    def _emit(self, rule_id: str, message: str, *, where: str = "") -> None:
        self.report.add(rule(rule_id).diag(message, opcode=where))

    # -- the pass --------------------------------------------------------------

    def verify(self, residents: Sequence[ResidentPlan]) -> LintReport:
        """Check every resident alone, then their co-residency."""
        layers_checked = 0
        for resident in residents:
            for k, segment in enumerate(resident.plan.segments):
                layers_checked += len(segment.layers)
                self._check_segment(resident, k, segment)
        self._check_co_residency(residents)
        self.report.program_length = layers_checked
        return self.report

    # -- per-segment checks ----------------------------------------------------

    def _check_segment(
        self, resident: ResidentPlan, k: int, segment: Segment
    ) -> None:
        capacity = self.config.capacity
        where = f"{resident.name}:seg{k}"
        if segment.total_nodes > self.config.array_size:
            self._emit(
                "PLAN602",
                f"segment needs {segment.total_nodes} tiles (computing + DC) "
                f"but the array provides {self.config.array_size}",
                where=where,
            )
        for spec in segment.layers:
            layer_where = f"{where}/{spec.name}"
            nodes = segment.allocation.nodes.get(spec.index, 0)
            try:
                floor = _split_floor(capacity, spec)
            except CapacityError:
                self._emit(
                    "PLAN603",
                    f"{spec.n_bits}-bit vectors reserve all "
                    f"{capacity.rows} rows of each compute slice for the "
                    f"ifmap, leaving no filter slots",
                    where=layer_where,
                )
                continue
            if nodes < floor:
                self._emit(
                    "PLAN601",
                    f"{nodes} computing core(s) cannot hold the layer's "
                    f"{spec.m} filters even split "
                    f"(capacity floor: {floor} cores)",
                    where=layer_where,
                )
        # Byte-level staging bound: the weight stream must fit the raw
        # CMem bytes of the computing cores it targets.  Coarser than the
        # slot model above, but independent of it — it catches plans
        # whose allocation dict disagrees with the layer geometry.
        node_bytes = capacity.compute_slices * capacity.rows * capacity.cols / 8
        allocated = sum(segment.allocation.nodes.values()) * node_bytes
        staged = segment_weight_bytes(segment)
        if staged > allocated:
            self._emit(
                "PLAN604",
                f"segment stages {staged:.0f} weight bytes into "
                f"{allocated:.0f} bytes of allocated CMem "
                f"({sum(segment.allocation.nodes.values())} computing cores)",
                where=where,
            )

    # -- cross-resident checks -------------------------------------------------

    def _check_co_residency(self, residents: Sequence[ResidentPlan]) -> None:
        total = sum(r.footprint for r in residents)
        if total > self.config.array_size:
            self._emit(
                "PLAN602",
                f"co-resident tenants need {total} tiles together but the "
                f"array provides {self.config.array_size}",
                where="system",
            )
        intervals = [
            (r.region_start, r.region_start + r.footprint, r.name)
            for r in residents
        ]
        region_tiles = self.config.chip.compute_tiles
        for start, end, name in intervals:
            if end > region_tiles:
                self._emit(
                    "PLAN602",
                    f"{name}'s region [{start}, {end}) runs past the "
                    f"{region_tiles}-tile snake region",
                    where=name,
                )
        for i, (a_start, a_end, a_name) in enumerate(intervals):
            for b_start, b_end, b_name in intervals[i + 1 :]:
                if a_start < b_end and b_start < a_end:
                    self._emit(
                        "PLAN606",
                        f"{a_name}'s region [{a_start}, {a_end}) overlaps "
                        f"{b_name}'s [{b_start}, {b_end}); both would be "
                        f"placed onto the same mesh tiles",
                        where=f"{a_name}+{b_name}",
                    )
        self._check_dram_bandwidth(residents)

    def _check_dram_bandwidth(self, residents: Sequence[ResidentPlan]) -> None:
        dram = DRAMConfig()
        budget = dram_bandwidth_budget(dram)
        load_bw = self.config.params.filter_load_bw
        # Each tenant's demand is capped at its filter-load port rate, so
        # n * load_bw bounds the total: under budget, skip the per-plan
        # byte sums entirely (the common pre-flight-gate case).
        if len(residents) * load_bw <= budget:
            return
        demand = 0.0
        for resident in residents:
            plan = resident.plan
            total_bytes = sum(
                segment_weight_bytes(segment) for segment in plan.segments
            )
            # Boundary fmaps cross DRAM twice: written out after segment
            # k, read back before segment k+1 (accounting.staging_cycles).
            for k in range(len(plan.segments) - 1):
                total_bytes += 2 * boundary_bytes(plan, k)
            cycles = sum(
                segment.allocation.bottleneck_time
                for segment in plan.segments
            )
            sustained = total_bytes / cycles if cycles > 0 else load_bw
            # A tenant cannot pull faster than its filter-load port.
            demand += min(load_bw, sustained)
        if residents and demand > budget:
            self._emit(
                "PLAN605",
                f"sustained DRAM demand {demand:.1f} B/cycle across "
                f"{len(residents)} resident(s) exceeds the "
                f"{budget:.1f} B/cycle channel budget "
                f"({dram.channels} channel(s))",
                where="system",
            )


def verify_plan(
    plan: Optional[SegmentPlan] = None,
    config: Optional[SimConfig] = None,
    *,
    co_resident: Sequence[ResidentPlan] = (),
) -> LintReport:
    """Run the ``PLAN6xx`` pass over one plan and/or a co-resident set.

    ``plan`` is wrapped as a resident at region offset 0; pass
    ``co_resident`` alone for multi-tenant deployments where every plan
    already carries its own region offset.
    """
    residents = list(co_resident)
    if plan is not None:
        residents.insert(0, ResidentPlan(name="plan", plan=plan))
    return PlanVerifier(config).verify(residents)
