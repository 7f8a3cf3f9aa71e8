"""The per-chip serving policy of a fleet run: profile-driven replicas.

One chip hosts at most one replica per model; each replica is its own
spatial partition (server) of its profile's ``cores``.  Service is
scripted: :class:`ReplicaPolicy` is a
:class:`~repro.serving.policies.FixedServicePolicy` over the profiles'
``service_ms`` and ``staging_ms``, so a fleet chip bills and attributes
every dispatch, batched or not, exactly as a single chip does.

Chip-level degradation (a slow chip, a partial-mesh fault) is a step
function of sim time, held as the policy's
:attr:`~repro.serving.policies.ServingPolicy.degradation` steps: every
service window dispatched at ``t`` is multiplied by the factor of the
last step at or before ``t``.  An empty schedule is the healthy chip:
the dispatch path then reads no factor at all.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SimulationError
from repro.fleet.failures import DegradationStep
from repro.fleet.profiles import ModelProfile
from repro.serving.policies import FixedServicePolicy
from repro.serving.tenancy import TenantSpec


class ReplicaPolicy(FixedServicePolicy):
    """Scripted-by-profile serving of one chip's model replicas."""

    name = "replica"

    def __init__(
        self,
        profiles: Mapping[str, ModelProfile],
        *,
        degradation: Sequence[DegradationStep] = (),
    ) -> None:
        super().__init__(
            {name: p.service_ms for name, p in profiles.items()},
            staging_ms={name: p.staging_ms for name, p in profiles.items()},
        )
        self._cores = {name: p.cores for name, p in profiles.items()}
        steps = sorted(degradation)
        for _, factor in steps:
            if factor <= 0:
                raise SimulationError(
                    f"degradation factor must be positive, got {factor}"
                )
        self.degradation = tuple(steps)

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        super().prepare(tenants)
        for tenant in tenants:
            self._shares[tenant.name] = self._cores[tenant.name]
