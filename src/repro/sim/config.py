"""Shared configuration consumed by every simulation backend.

One :class:`SimConfig` fully describes *what machine* a network is
simulated on (chip geometry, timing constants, capacity model, partition
size) and *how* the selected backend should run it (batch, mapping
strategy, tier-specific knobs).  It is also the chip the energy and area
models bill: they count cores and LLC tiles from ``chip`` and CMem
slices and rows from ``capacity``.  The callers that hold machine state
(``MultiDNNScheduler`` and, through it, ``serving.ServiceModel``) keep
it as a ``SimConfig`` and hand it to :func:`repro.sim.simulate`, so
every tier answers the same fully-specified query.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.chip import ChipConfig
from repro.core.perfmodel import TimingParams
from repro.errors import ConfigurationError
from repro.mapping.capacity import CapacityModel


def check_batch(name: str, value: object) -> None:
    """Reject a batch size that is not an integer >= 1.

    A fractional ``batch`` would scale MACs and cycles by a fraction of
    a sample, and a fractional ``batch_requests`` would fail deep inside
    the queueing tiers; NumPy integers are accepted.
    """
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Everything a backend needs besides the network and the plan.

    The first block describes the machine; the second block describes the
    run; the trailing fields are tier-specific knobs that other tiers
    ignore (documented per backend in ``docs/SIMULATORS.md``).
    """

    chip: ChipConfig = field(default_factory=ChipConfig)
    params: TimingParams = field(default_factory=TimingParams)
    capacity: CapacityModel = field(default_factory=CapacityModel)
    #: Compute cores the mapper may use.  Left unset, it is the whole chip
    #: minus the two cores reserved for the streaming DC of the widest
    #: segment (``chip.compute_tiles - 2``: the paper's 210 -> 208);
    #: multi-DNN partitions set their share.  It may not exceed the
    #: chip's compute tiles.
    array_size: int = None  # type: ignore[assignment]

    strategy: str = "heuristic"
    batch: int = 1
    #: Weight-stationary request batching: one mapped network serves this
    #: many in-flight requests back to back, loading filters and staging
    #: the segment once.  ``batch`` multiplies samples *within* one
    #: request (shared staging, per-sample compute); ``batch_requests``
    #: streams whole requests through the resident weights, so staging
    #: and filter-load costs amortize across requests in every tier.
    batch_requests: int = 1

    #: ``cycle`` tier: seed for the synthesized int8 weights/ifmaps the
    #: numerics check executes.
    seed: int = 0
    #: Static pre-flight gate: before any tier spends cycles,
    #: ``simulate()`` runs the ``PLAN6xx`` plan verifier
    #: (:func:`repro.analysis.analyze_plan`, ``plan`` family only) and
    #: raises :class:`repro.errors.PlanVerificationError` on
    #: error-severity findings.  ``False`` opts out — e.g. to simulate a
    #: deliberately broken plan, or to shave the last microseconds off a
    #: hot control loop (docs/ANALYSIS.md, "The pre-flight gate").
    preflight: bool = True

    def __post_init__(self) -> None:
        tiles = self.chip.compute_tiles
        if self.array_size is None:
            object.__setattr__(self, "array_size", tiles - 2)
        if self.array_size < 2:
            raise ConfigurationError(
                f"array_size must be >= 2 (one DC + one computing core), "
                f"got {self.array_size}"
            )
        if self.array_size > tiles:
            raise ConfigurationError(
                f"array_size {self.array_size} exceeds the chip's {tiles} "
                f"compute tiles; leave array_size unset to map onto this "
                f"chip ({tiles - 2} cores), e.g. build SimConfig(chip=...) "
                f"rather than replace the chip of a built config"
            )
        check_batch("batch", self.batch)
        check_batch("batch_requests", self.batch_requests)

    def with_run(
        self,
        *,
        strategy: Optional[str] = None,
        batch: Optional[int] = None,
        batch_requests: Optional[int] = None,
    ) -> "SimConfig":
        """A copy of this machine description with new run parameters."""
        return replace(
            self,
            strategy=self.strategy if strategy is None else strategy,
            batch=self.batch if batch is None else batch,
            batch_requests=(
                self.batch_requests if batch_requests is None else batch_requests
            ),
        )
