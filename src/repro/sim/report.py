"""The canonical result schema every simulation backend returns.

:class:`RunReport` and :class:`SegmentReport` subsume the tiers' own
result shapes: the streaming tier's segment simulator returns the
per-layer :class:`LayerReport` records directly, and the backends fold
the event tier's ``EventSegmentResult`` and the functional groups'
stats into the same fields.

* ``RunReport`` carries the plan, op counts, energy, and the
  latency/throughput/power derivations, plus the name of the backend
  that produced it.
* ``SegmentReport`` carries the segment, its timings, and the
  filter-load and staging cycles, plus one :class:`LayerReport` per
  layer (the streaming tier's own per-layer record, re-exported here),
  the event tier's ``events_processed``, and the cycle tier's numerics
  evidence.

All fields are simulation-derived and deterministic; :meth:`RunReport.as_dict`
produces a JSON-safe summary whose serialization is byte-stable across
identical runs (CI diffs it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.perfmodel import LayerTiming
from repro.core.streaming import LayerReport
from repro.energy.constants import ChipConstants
from repro.energy.power import EnergyBreakdown, OpCounts
from repro.mapping.segmentation import Segment, SegmentPlan
from repro.nn.workloads import NetworkSpec


@dataclass
class SegmentReport:
    """One mapped segment's simulated execution (any backend).

    ``compute_cycles`` is the tier's per-segment compute time (the latest
    layer ``finish``); ``cycles`` adds the filter-load and staging charges
    every tier shares.
    """

    segment: Segment
    timings: List[LayerTiming]
    compute_cycles: float
    filter_load_cycles: float
    staging_cycles: float
    layers: List[LayerReport] = field(default_factory=list)
    #: Bottleneck station's busy time — the per-sample interval extra
    #: batch samples stream at.
    steady_interval: float = 0.0
    #: Event tier only: events the discrete-event kernel processed.
    events_processed: Optional[int] = None
    #: Cycle tier only: MACs actually executed by the functional groups.
    functional_macs: Optional[int] = None
    #: Cycle tier only: checksum of the executed ofmap accumulators.
    checksum: Optional[int] = None
    #: Cycle tier only: every executed layer matched the quantized
    #: reference bit-for-bit (the backend raises otherwise, so a
    #: returned report always says ``True``).
    numerics_verified: Optional[bool] = None

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.filter_load_cycles + self.staging_cycles

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "layers": [layer.as_dict() for layer in self.layers],
            "layer_indices": [spec.index for spec in self.segment.layers],
            "total_nodes": self.segment.total_nodes,
            "compute_cycles": self.compute_cycles,
            "filter_load_cycles": self.filter_load_cycles,
            "staging_cycles": self.staging_cycles,
            "steady_interval": self.steady_interval,
            "cycles": self.cycles,
        }
        if self.events_processed is not None:
            out["events_processed"] = self.events_processed
        if self.functional_macs is not None:
            out["functional_macs"] = self.functional_macs
        if self.checksum is not None:
            out["checksum"] = self.checksum
        if self.numerics_verified is not None:
            out["numerics_verified"] = self.numerics_verified
        return out


@dataclass
class RunReport:
    """Everything one network run produced, whatever the backend.

    ``runs`` holds one :class:`SegmentReport` per mapped segment, in
    execution order.
    """

    network: NetworkSpec
    strategy: str
    plan: SegmentPlan
    runs: List[SegmentReport]
    total_cycles: float
    ops: OpCounts
    energy: EnergyBreakdown
    constants: ChipConstants
    batch: int = 1
    #: Weight-stationary request batching factor the run was produced
    #: with (``SimConfig.batch_requests``): the run covers
    #: ``batch * batch_requests`` samples, with filter loads and segment
    #: staging paid once for the whole request batch.
    batch_requests: int = 1
    backend: str = "streaming"

    @property
    def latency_ms(self) -> float:
        """Whole-run latency (all ``batch * batch_requests`` samples)."""
        return self.total_cycles * self.constants.cycle_seconds * 1e3

    @property
    def latency_per_request_ms(self) -> float:
        """Amortized per-request latency of the request batch."""
        return self.latency_ms / self.batch_requests

    @property
    def throughput_samples_s(self) -> float:
        return self.batch * self.batch_requests * 1000.0 / self.latency_ms

    @property
    def staging_cycles_per_request(self) -> float:
        """Amortized per-request share of the one-time filter-load and
        segment-staging cycles — the costs request batching exists to
        amortize (they are charged once per request batch)."""
        once = sum(
            run.filter_load_cycles + run.staging_cycles for run in self.runs
        )
        return once / self.batch_requests

    @property
    def average_power_w(self) -> float:
        seconds = self.total_cycles * self.constants.cycle_seconds
        return self.energy.total / seconds

    @property
    def throughput_per_watt(self) -> float:
        return self.throughput_samples_s / self.average_power_w

    def gops_per_watt(self, *, include_dram: bool = True) -> float:
        """Computational efficiency in GOPS/W (1 MAC = 2 ops).

        The paper's Neural-Cache comparison excludes DRAM power
        (Sec. 6.3); pass ``include_dram=False`` to match.
        """
        seconds = self.total_cycles * self.constants.cycle_seconds
        ops = (
            2.0 * self.batch * self.batch_requests
            * self.network.total_macs / seconds
        )
        energy = self.energy.total if include_dram else self.energy.total - self.energy.dram
        return ops / (energy / seconds) / 1e9

    def nodes_of(self, layer_index: int) -> int:
        return self.plan.nodes_of(layer_index)

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-safe summary (scripts and CI diff this)."""
        return {
            "backend": self.backend,
            "network": self.network.name,
            "strategy": self.strategy,
            "batch": self.batch,
            "batch_requests": self.batch_requests,
            "total_cycles": self.total_cycles,
            "latency_ms": self.latency_ms,
            "latency_per_request_ms": self.latency_per_request_ms,
            "staging_cycles_per_request": self.staging_cycles_per_request,
            "energy_j": self.energy.total,
            "segments": [run.as_dict() for run in self.runs],
        }
