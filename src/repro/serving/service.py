"""Partition service model: latency and re-mapping cost vs partition size.

Every chip-model-backed serving policy (static, time-shared, elastic)
reads its service times here, and the elastic partition manager also
needs the re-mapping cost.  Both are numbers the offline stack already
knows how to compute:

* ``latency_ms(network, cores)`` — the model's inference latency inside a
  ``cores``-sized partition, obtained by re-running the full mapping
  pipeline (:mod:`repro.mapping.allocation` via the segment planner, then
  the selected ``repro.sim`` backend) through
  :meth:`repro.core.multi_dnn.MultiDNNScheduler.simulate_partition`.
  Results are memoized per ``(network, cores, backend, batch_requests)``
  in a bounded LRU — resizes revisit the same handful of share sizes,
  and :class:`NetworkSpec` is hashable.  Cache traffic is observable at
  ``serving/service/cache_hit`` / ``serving/service/cache_miss``.  A
  miss still plans the partition, but the scheduler runs the tier once
  per distinct plan: share sizes that map a model identically share
  one report.

* ``restage_ms(network)`` — the sim-time cost of re-staging the model's
  weights after its partition moved or changed size.  Weights stream
  from DRAM at the perf model's aggregate filter-load bandwidth with no
  compute to overlap behind (the partition is idle mid-resize), so the
  full ``weight_bytes / filter_load_bw`` cycles are charged.

SLO accounting always reads the model's authoritative tier: the
scheduler's ``backend`` (``streaming`` by default; ``scripts/serve.py
--backend`` sets it).  :meth:`partition_run` takes a ``backend``
override for lookups on another tier; the elastic policy's resize gate
reads its ``decision_backend`` that way.
"""

from __future__ import annotations

import numbers
from collections import OrderedDict
from typing import Optional, Tuple

from repro import telemetry
from repro.core.multi_dnn import DEFAULT_CACHE_SIZE, MultiDNNScheduler
from repro.errors import ConfigurationError
# Not called here: the repository benchmark's tracer (bench/trace.py)
# wraps this module attribute as its ``mapping.placement`` boundary.
from repro.mapping.placement import zigzag_placement  # noqa: F401
from repro.nn.workloads import NetworkSpec
from repro.sim import RunReport

_CacheKey = Tuple[NetworkSpec, int, str, int]


class ServiceModel:
    """Caches per-partition-size simulations of each tenant's network."""

    def __init__(
        self,
        scheduler: Optional[MultiDNNScheduler] = None,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if not isinstance(cache_size, numbers.Integral) or cache_size < 1:
            raise ConfigurationError(
                f"cache_size must be an integer >= 1, got {cache_size!r}"
            )
        self.scheduler = scheduler or MultiDNNScheduler()
        self.cache_size = cache_size
        self._runs: "OrderedDict[_CacheKey, RunReport]" = OrderedDict()

    @property
    def array_size(self) -> int:
        return self.scheduler.array_size

    def minimum_cores(self, network: NetworkSpec) -> int:
        return self.scheduler.minimum_cores(network)

    def partition_run(
        self,
        network: NetworkSpec,
        cores: int,
        *,
        backend: Optional[str] = None,
        batch_requests: int = 1,
    ) -> RunReport:
        """The memoized simulation of ``network`` on ``cores`` cores.

        ``backend`` overrides the scheduler's authoritative tier for this
        lookup; ``batch_requests`` simulates a weight-stationary request
        batch.  Both are part of the cache key."""
        tier = backend or self.scheduler.backend
        key = (network, cores, tier, batch_requests)
        sink = telemetry.current()
        run = self._runs.get(key)
        if run is not None:
            self._runs.move_to_end(key)
            if sink.enabled:
                sink.registry.counter("serving/service/cache_hit").inc()
            return run
        if sink.enabled:
            sink.registry.counter("serving/service/cache_miss").inc()
        run = self.scheduler.simulate_partition(
            network, cores, backend=tier, batch_requests=batch_requests
        )
        self._runs[key] = run
        while len(self._runs) > self.cache_size:
            self._runs.popitem(last=False)
        return run

    def latency_ms(self, network: NetworkSpec, cores: int) -> float:
        """Authoritative-tier latency (what SLO accounting bills)."""
        return self.partition_run(network, cores).latency_ms

    def batched_latency_ms(
        self, network: NetworkSpec, cores: int, batch_requests: int
    ) -> float:
        """Authoritative-tier latency of a whole weight-stationary request
        batch — filters load and segments stage once, so this grows
        sublinearly in ``batch_requests``."""
        return self.partition_run(
            network, cores, batch_requests=batch_requests
        ).latency_ms

    def restage_ms(self, network: NetworkSpec) -> float:
        """Sim-time to re-stage the model's weights after a resize."""
        config = self.scheduler.config
        weight_bytes = sum(
            spec.weight_count * spec.n_bits / 8 for spec in network
        )
        cycles = weight_bytes / config.params.filter_load_bw
        return cycles * config.chip.constants.cycle_seconds * 1e3
