"""Per-model serving profiles: what a chip needs to serve a replica.

A fleet run simulates N chips serving millions of requests; re-running
the full mapping + backend pipeline per chip (let alone per request)
would drown the event loop.  Instead every model carries one scripted
:class:`ModelProfile` — service time at the replica's partition share,
the one-time staging share of it, and the weight re-staging cost of a
new replica — the fleet analogue of
:class:`~repro.serving.policies.FixedServicePolicy`, whose billing rule
each chip applies to it.  The profile is plain data, so it pickles
cheaply to worker processes and the chips run at pure event-loop speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, NetworkSpec


@dataclass(frozen=True)
class ModelProfile:
    """Everything a chip needs to serve one model replica.

    ``service_ms`` is what one request costs on the replica's
    ``cores``-core partition: SLO accounting bills it, and the router's
    fluid load model and the autoscaler estimate load with it.
    ``staging_ms`` is its one-time share: a batched dispatch pays it
    once and the remainder per request.  ``restage_ms`` is how long a
    re-placed or added replica loads its weights before it is routable.
    """

    name: str
    service_ms: float
    cores: int = 1
    staging_ms: float = 0.0
    restage_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise SimulationError(f"profile cores must be >= 1, got {self.cores}")
        if self.service_ms <= 0:
            raise SimulationError(
                f"profile service_ms must be positive, got {self.service_ms}"
            )
        if not 0.0 <= self.staging_ms <= self.service_ms:
            raise SimulationError(
                f"staging_ms must be within [0, service_ms], got {self.staging_ms}"
            )

    def stub_network(self) -> NetworkSpec:
        """A 1x1 placeholder network carrying only the model's name.

        Chips never re-simulate the chip model (the profile already holds
        every number), but :class:`~repro.serving.tenancy.TenantSpec`
        carries a network; this keeps worker payloads tiny.
        """
        layer = ConvLayerSpec(index=0, name=f"{self.name}/stub", h=1, w=1, c=1, m=1)
        return NetworkSpec(name=self.name, layers=(layer,))
