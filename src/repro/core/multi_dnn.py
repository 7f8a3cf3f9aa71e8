"""Multi-DNN parallel inference on the MAICC array.

The paper's MIMD argument (Sec. 8): because every node has its own control
flow, the array can be *spatially partitioned* among several models, each
mapped with the usual execution framework inside its partition.  This
module implements that scheduler and the obvious baseline — time-sharing
the whole array — so the benefit of spatial co-location can be quantified.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

# The module, not its members: the repository benchmark's tracer
# (bench/trace.py) wraps ``tile_network`` and ``plan_network`` on it.
import repro.sim.backends as backends
from repro.errors import MappingError, SimulationError
from repro.sim import DEFAULT_BACKEND, RunReport, SimConfig, simulate
from repro.sim.accounting import TimingMemo
from repro.mapping.allocation import proportional_shares
from repro.nn.workloads import NetworkSpec

#: Bound on a serving session's memoized simulations: the scheduler's
#: reports of distinct plans, and the default of
#: :class:`repro.serving.ServiceModel`'s ``(network, cores, backend,
#: batch_requests)`` memo.  A serving scenario revisits a few share
#: sizes per tenant; 256 entries is generous for tens of tenants while
#: bounding long-lived services.
DEFAULT_CACHE_SIZE = 256


@dataclass
class ModelRun:
    """One model's execution inside its partition."""

    network: NetworkSpec
    partition_cores: int
    result: RunReport
    #: The model's offset into the global snake walk: it owns the
    #: interval ``[region_start, region_start + partition_cores)``, and
    #: :func:`repro.mapping.placement.zigzag_placement` places each of
    #: its segments at the interval's start.
    region_start: int = 0

    @property
    def latency_ms(self) -> float:
        return self.result.latency_ms

    @property
    def throughput(self) -> float:
        return self.result.throughput_samples_s


@dataclass
class MultiDNNResult:
    """Spatial-partition run vs the time-shared baseline."""

    runs: List[ModelRun]
    time_shared_latency_ms: float

    def _require_runs(self) -> None:
        if not self.runs:
            raise SimulationError(
                "MultiDNNResult has no model runs; aggregate latency and "
                "throughput are undefined for an empty schedule"
            )

    @property
    def parallel_latency_ms(self) -> float:
        """All models run concurrently: makespan = slowest model."""
        self._require_runs()
        return max(run.latency_ms for run in self.runs)

    @property
    def aggregate_throughput(self) -> float:
        """Samples/s summed over concurrently running models."""
        self._require_runs()
        return sum(run.throughput for run in self.runs)

    @property
    def time_shared_throughput(self) -> float:
        """Round-robin on the whole array: one sample per model per round."""
        self._require_runs()
        return len(self.runs) / (self.time_shared_latency_ms / 1000.0)

    @property
    def speedup_vs_time_shared(self) -> float:
        return self.time_shared_latency_ms / self.parallel_latency_ms


class MultiDNNScheduler:
    """Partitions the compute array among several DNNs."""

    def __init__(
        self,
        *,
        array_size: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        """``array_size`` is the cores to partition (default: the whole
        chip minus two DC cores).  ``backend`` selects the fidelity tier
        partitions and the time-shared baseline are simulated on
        (``repro.sim`` name); ``None`` is the default ``streaming`` tier."""
        self.config = (
            SimConfig() if array_size is None else SimConfig(array_size=array_size)
        )
        self.backend = backend or DEFAULT_BACKEND
        # One planning session over this machine: the Eq. (1) times every
        # partition is planned on, and the report of each distinct plan
        # run so far, least recently used first.
        self._times: TimingMemo = {}
        self._reports: "OrderedDict[tuple, RunReport]" = OrderedDict()

    @property
    def array_size(self) -> int:
        return self.config.array_size

    def minimum_cores(self, network: NetworkSpec) -> int:
        """Smallest partition that still fits the model's largest layer."""
        return max(
            self.config.capacity.min_nodes(spec, max_nodes=self.array_size - 1)
            + 1
            for spec in network
        )

    def partition(self, networks: Sequence[NetworkSpec]) -> List[int]:
        """Split the array proportionally to each model's MAC demand.

        Every model is guaranteed at least the cores its largest layer
        needs at the capacity minimum; remaining cores are distributed by
        computational weight (:func:`proportional_shares` — the same
        allocator the elastic serving policy resizes through).
        """
        if not networks:
            raise MappingError("no networks to schedule")
        minimums = [self.minimum_cores(net) for net in networks]
        if sum(minimums) > self.array_size:
            raise MappingError(
                f"models need at least {sum(minimums)} cores together but the "
                f"array has {self.array_size}"
            )
        return proportional_shares(
            minimums,
            [net.total_macs for net in networks],
            self.array_size,
        )

    def simulate_partition(
        self,
        network: NetworkSpec,
        cores: int,
        strategy: str = "heuristic",
        *,
        backend: Optional[str] = None,
        batch_requests: int = 1,
    ) -> RunReport:
        """Run one model inside a ``cores``-sized slice of the array.

        The shared entry point for both the static schedule below and the
        elastic partition manager of :mod:`repro.serving`: both derive a
        partition's service time from exactly this simulation, so a
        static partition and an elastic partition of the same size agree
        bit-for-bit.  ``backend`` overrides the scheduler's tier for this
        call only (the elastic policy estimates resize decisions on the
        cheap ``analytic`` tier this way); ``batch_requests`` streams a
        weight-stationary request batch through the partition
        (``SimConfig.batch_requests``).

        Every call tiles, plans (on the scheduler's Eq. (1) memo) and
        passes the :func:`~repro.sim.simulate` pre-flight gate on its own
        partition size.  The tier then runs once per distinct plan, tier
        and ``batch_requests``: apart from tiling and planning, no part
        of a report reads the partition size, so every size that maps to
        one plan gets the same report object.
        """
        config = replace(
            self.config,
            array_size=cores,
            strategy=strategy,
            batch_requests=batch_requests,
        )
        tier = backend or self.backend
        engine = backends.get_backend(tier)
        plan = backends.plan_network(
            backends.tile_network(network, config.capacity, cores),
            strategy,
            config,
            self._times,
        )
        backends.preflight(plan, config)
        # All a tier run reads of the plan besides the machine: the
        # strategy, the tiled network, and each segment's layers (its
        # allocation's indices, in layer order) and their cores.
        key = (
            tier,
            batch_requests,
            plan.strategy,
            plan.network,
            tuple(tuple(s.allocation.nodes.items()) for s in plan.segments),
        )
        report = self._reports.get(key)
        if report is not None:
            self._reports.move_to_end(key)
            return report
        report = self._reports[key] = engine.run(plan.network, plan, config)
        if len(self._reports) > DEFAULT_CACHE_SIZE:
            self._reports.popitem(last=False)
        return report

    def run(
        self,
        networks: Sequence[NetworkSpec],
        *,
        strategy: str = "heuristic",
    ) -> MultiDNNResult:
        """Simulate all models running concurrently in their partitions."""
        shares = self.partition(networks)
        runs: List[ModelRun] = []
        offset = 0
        for net, share in zip(networks, shares):
            result = self.simulate_partition(net, share, strategy)
            # Each model owns a contiguous interval of the global snake
            # walk; its segments (which run sequentially in time) reuse
            # that interval, so models never share a tile.
            runs.append(
                ModelRun(
                    network=net,
                    partition_cores=share,
                    result=result,
                    region_start=offset,
                )
            )
            offset += share
        # Baseline: whole array, one model at a time, repeated round-robin.
        time_shared = 0.0
        for net in networks:
            result = simulate(
                net,
                backend=self.backend,
                config=self.config.with_run(strategy=strategy),
            )
            time_shared += result.latency_ms
        return MultiDNNResult(runs=runs, time_shared_latency_ms=time_shared)
