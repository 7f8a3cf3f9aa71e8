"""Cross-tier differential checking.

Runs the *same mapped plan* through several backends and asserts their
network-level cycle totals agree within a per-tier envelope of the
reference tier (``streaming``, the tier all historical results were
produced on).  The envelope encodes what each tier is allowed to differ
by — it is evidence the tiers model the same machine, not merely that
they share code (the tiers share only the mapping/accounting layer in
:mod:`repro.sim.accounting`; their per-segment compute models are
independent implementations).

Measured agreement on the reference workloads (ResNet-18 and the small
CNN, all three mapping strategies):

* ``event`` / ``streaming`` ≈ 0.98–1.05 at network level on full-size
  networks (the event tier resolves per-core forwarding the tandem-queue
  model approximates; the two bound each other within a few percent).
  On spatially tiny segments pipeline fill dominates and the gap grows —
  ≈ 1.12 on the 6x6 ``resnet18-segment`` xcheck workload — so the
  envelope allows 15%.
* ``analytic`` / ``streaming`` ≈ 1.00–1.19 (the closed form charges every
  layer its static start offset plus full standalone time, so it is a
  conservative upper bound on the pipelined streaming schedule; the two
  coincide exactly on single-layer segments).
* ``cycle`` reuses the analytic roll-up for time and must additionally
  report every executed layer bit-identical to the quantized reference.

``scripts/xcheck.py`` exposes this as a CLI; CI runs it on a tiny
network and a ResNet-18-style segment and byte-compares the JSON output
across two runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mapping.tiling import tile_network
from repro.nn.workloads import NetworkSpec
from repro.sim.accounting import plan_network
from repro.sim.backends import available_backends, get_backend
from repro.sim.config import SimConfig
from repro.sim.report import RunReport

#: Allowed ``tier_total / reference_total`` range per backend.  The
#: reference tier itself is checked against (1, 1) implicitly.
DEFAULT_ENVELOPE: Dict[str, Tuple[float, float]] = {
    "analytic": (0.95, 1.25),
    "event": (0.90, 1.15),
    "cycle": (0.95, 1.25),
}

DEFAULT_REFERENCE = "streaming"


@dataclass
class TierCheck:
    """One backend's agreement with the reference tier."""

    backend: str
    total_cycles: float
    latency_ms: float
    ratio: float        # this tier's cycles / reference tier's cycles
    lo: float
    hi: float
    ok: bool
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "total_cycles": self.total_cycles,
            "latency_ms": self.latency_ms,
            "ratio": self.ratio,
            "envelope": [self.lo, self.hi],
            "ok": self.ok,
            "notes": list(self.notes),
        }


@dataclass
class XCheckReport:
    """Outcome of one cross-tier differential run."""

    network: str
    strategy: str
    reference: str
    checks: List[TierCheck]
    #: Each tier's run of the shared plan, by backend name (not exported
    #: by :meth:`as_dict`; the cross-tier dashboard is built from it).
    reports: Dict[str, RunReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def as_dict(self) -> Dict[str, object]:
        return {
            "network": self.network,
            "strategy": self.strategy,
            "reference": self.reference,
            "ok": self.ok,
            "checks": [check.as_dict() for check in self.checks],
        }


def _check_tier(
    name: str,
    report: RunReport,
    reference_cycles: float,
    envelope: Dict[str, Tuple[float, float]],
) -> TierCheck:
    lo, hi = envelope.get(name, (1.0, 1.0))
    ratio = report.total_cycles / reference_cycles
    ok = lo <= ratio <= hi
    notes: List[str] = []
    if name == "cycle":
        macs = sum(run.functional_macs or 0 for run in report.runs)
        verified = all(run.numerics_verified for run in report.runs)
        notes.append(f"executed {macs} MACs vs quantized reference")
        if not verified:
            ok = False
            notes.append("numerics NOT verified")
    if name == "event":
        events = sum(run.events_processed or 0 for run in report.runs)
        notes.append(f"{events} events processed")
    return TierCheck(
        backend=name,
        total_cycles=report.total_cycles,
        latency_ms=report.latency_ms,
        ratio=ratio,
        lo=lo,
        hi=hi,
        ok=ok,
        notes=notes,
    )


def cross_check(
    network: NetworkSpec,
    *,
    config: Optional[SimConfig] = None,
    strategy: Optional[str] = None,
    backends: Optional[Sequence[str]] = None,
    reference: str = DEFAULT_REFERENCE,
    envelope: Optional[Dict[str, Tuple[float, float]]] = None,
) -> XCheckReport:
    """Run ``network`` through every tier on one shared plan and compare.

    The plan is computed once so the tiers are differenced on *identical*
    mappings; only the per-segment compute model varies.  Returns the
    report — check ``.ok`` to enforce the envelope; each failing
    :class:`TierCheck` says which tier fell outside its band.
    """
    cfg = (config or SimConfig()).with_run(strategy=strategy)
    env = DEFAULT_ENVELOPE if envelope is None else envelope
    names = list(backends) if backends is not None else list(available_backends())
    if reference not in names:
        names.insert(0, reference)

    tiled = tile_network(network, cfg.capacity, cfg.array_size)
    plan = plan_network(tiled, cfg.strategy, cfg)
    reports = {name: get_backend(name).run(tiled, plan, cfg) for name in names}

    reference_cycles = reports[reference].total_cycles
    checks = [
        TierCheck(
            backend=reference,
            total_cycles=reference_cycles,
            latency_ms=reports[reference].latency_ms,
            ratio=1.0,
            lo=1.0,
            hi=1.0,
            ok=True,
            notes=["reference tier"],
        )
    ]
    for name in sorted(reports):
        if name == reference:
            continue
        checks.append(_check_tier(name, reports[name], reference_cycles, env))
    return XCheckReport(
        network=network.name,
        strategy=cfg.strategy,
        reference=reference,
        checks=checks,
        reports=reports,
    )
