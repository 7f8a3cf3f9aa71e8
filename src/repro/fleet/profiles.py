"""Per-model serving profiles: what a chip needs to serve a replica.

A fleet run simulates N chips serving millions of requests; re-running
the full mapping + backend pipeline per chip (let alone per request)
would drown the event loop.  Instead every model carries one
:class:`ModelProfile` — service time at the replica's partition share,
batched service time, the estimate for routing/autoscaling decisions,
the weight re-staging cost, and the phase split for latency attribution.
The profile is plain data (floats and tuples), so it pickles cheaply to
worker processes and the chips run at pure event-loop speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, NetworkSpec

#: ``(phase name, category, weight)`` — the plain-data mirror of
#: :class:`repro.obs.timeline.PhaseSpec` (ratios only; picklable).
PhaseTriple = Tuple[str, str, float]


@dataclass(frozen=True)
class ModelProfile:
    """Everything a chip needs to serve one model replica.

    ``service_ms`` / ``batched_ms`` are what SLO accounting bills;
    ``est_ms`` is what the router's fluid load model and the autoscaler
    use (relative orderings, never billing).  ``batched_ms`` is the
    latency of a full ``batch_requests``-sized weight-stationary batch;
    intermediate batch sizes interpolate through the derived one-time
    :attr:`staging_ms` share, exactly like
    :class:`~repro.serving.policies.FixedServicePolicy`.
    """

    name: str
    cores: int
    min_cores: int
    service_ms: float
    batched_ms: float
    batch_requests: int
    est_ms: float
    restage_ms: float
    phases: Tuple[PhaseTriple, ...] = (
        ("service/compute", "compute", 1.0),
    )

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SimulationError(f"profile cores must be >= 1, got {self.cores}")
        if self.service_ms <= 0:
            raise SimulationError(
                f"profile service_ms must be positive, got {self.service_ms}"
            )
        if self.batch_requests < 1:
            raise SimulationError(
                f"profile batch_requests must be >= 1, got {self.batch_requests}"
            )
        if self.batched_ms < self.service_ms and self.batch_requests > 1:
            raise SimulationError(
                "profile batched_ms must be >= service_ms "
                f"({self.batched_ms} < {self.service_ms})"
            )

    @property
    def staging_ms(self) -> float:
        """One-time share of the service window (amortized by batching).

        Derived so the linear batched model ``stage + n * (service -
        stage)`` reproduces both measured endpoints (``n=1`` and
        ``n=batch_requests``) exactly; clamped to ``[0, service_ms]``.
        """
        if self.batch_requests == 1:
            return 0.0
        stage = (
            self.batch_requests * self.service_ms - self.batched_ms
        ) / (self.batch_requests - 1)
        return min(max(stage, 0.0), self.service_ms)

    def batched_service_ms(self, count: int) -> float:
        if count < 1:
            raise SimulationError(f"batch count must be >= 1, got {count}")
        if count == 1:
            return self.service_ms
        stage = self.staging_ms
        return stage + count * (self.service_ms - stage)

    def stub_network(self) -> NetworkSpec:
        """A 1x1 placeholder network carrying only the model's name.

        Chips never re-simulate the chip model (the profile already holds
        every number), but :class:`~repro.serving.tenancy.TenantSpec`
        carries a network; this keeps worker payloads tiny.
        """
        layer = ConvLayerSpec(index=0, name=f"{self.name}/stub", h=1, w=1, c=1, m=1)
        return NetworkSpec(name=self.name, layers=(layer,))


def fixed_profile(
    name: str,
    service_ms: float,
    *,
    cores: int = 1,
    staging_ms: float = 0.0,
    batch_requests: int = 1,
    est_ms: Optional[float] = None,
    restage_ms: float = 0.0,
) -> ModelProfile:
    """A scripted profile with no chip model behind it.

    The fleet analogue of
    :class:`~repro.serving.policies.FixedServicePolicy`: used by unit
    tests and by large synthetic scenarios (``diurnal-million``) where
    the point is router/balancer behaviour at scale, not chip fidelity.
    """
    if not 0.0 <= staging_ms <= service_ms:
        raise SimulationError(
            f"staging_ms must be within [0, service_ms], got {staging_ms}"
        )
    batched = (
        service_ms
        if batch_requests == 1
        else staging_ms + batch_requests * (service_ms - staging_ms)
    )
    phases: Tuple[PhaseTriple, ...]
    if staging_ms > 0.0:
        phases = (
            ("service/staging", "staging", staging_ms),
            ("service/compute", "compute", service_ms - staging_ms),
        )
    else:
        phases = (("service/compute", "compute", 1.0),)
    return ModelProfile(
        name=name,
        cores=cores,
        min_cores=cores,
        service_ms=service_ms,
        batched_ms=batched,
        batch_requests=batch_requests,
        est_ms=service_ms if est_ms is None else est_ms,
        restage_ms=restage_ms,
        phases=phases,
    )
