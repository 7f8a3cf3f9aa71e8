"""Per-request latency attribution: where a request's time went.

A completed request's end-to-end latency decomposes into an ordered list
of named **phases** drawn from a fixed taxonomy (see
:data:`PHASE_CATEGORIES`): admission-queue wait, then the service
window's breakdown — per-segment DRAM filter load, NoC staging, CMem
compute — and a ``drain`` residual for steady-state streaming of extra
samples.  The decomposition's contract is the **attribution invariant**:

    the left-to-right sum of a timeline's phase durations equals the
    request's end-to-end latency *bit-exactly*.

Floating-point addition is not associative, so the invariant is enforced
by construction: all phases but the last carry their modeled durations
and :func:`fit_durations` nudges the final phase until the left-to-right
sum reproduces the total exactly (the nudge is below any modeled
precision — sub-ulp of the total).  ``tests/serving/test_attribution.py``
pins the invariant for every completed request in the streaming and
event tiers.

Phase *weights* come from the simulation tiers themselves:
:func:`report_phases` reads a :class:`~repro.sim.report.RunReport` and
returns one weight per (segment, category) in cycles, summing to the
report's ``total_cycles`` — so serving attribution and the cross-tier
harness difference on identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ObservabilityError

if TYPE_CHECKING:
    from repro.sim.report import RunReport

#: The attribution phase taxonomy (docs/TELEMETRY.md).  Every phase name
#: maps to exactly one category; stacked-bar reports group by category.
PHASE_CATEGORIES: Tuple[str, ...] = (
    "queue",      # admission-queue wait (arrival -> service start)
    "admission",  # admission control itself (instantaneous in this model)
    "dram",       # weight filter load from DRAM
    "staging",    # inter-segment activation staging over the NoC
    "compute",    # CMem / node-group compute inside the segments
    "drain",      # steady-state streaming residual (extra samples/requests)
)


def fold_by_category(phases: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Sum ``(category, duration)`` pairs per category, left to right.

    The result is in taxonomy order and holds only the taxonomy
    categories that occur (zero-valued ones included).  Request
    timelines and the dashboard's attribution panels fold through here.
    """
    totals: Dict[str, float] = {}
    for category, duration in phases:
        totals[category] = totals.get(category, 0.0) + duration
    return {c: totals[c] for c in PHASE_CATEGORIES if c in totals}


@dataclass(frozen=True)
class PhaseSpec:
    """A phase template: name, category, and a non-negative weight."""

    name: str
    category: str
    weight: float

    def __post_init__(self) -> None:
        if self.category not in PHASE_CATEGORIES:
            raise ObservabilityError(
                f"unknown phase category {self.category!r}; "
                f"choose from {PHASE_CATEGORIES}"
            )
        if self.weight < 0:
            raise ObservabilityError(
                f"phase {self.name!r} has negative weight {self.weight}"
            )


@dataclass(frozen=True)
class Phase:
    """One attributed slice of a request's latency."""

    name: str
    category: str
    duration: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category,
            "duration": self.duration,
        }


@dataclass
class RequestTimeline:
    """One request's end-to-end latency, decomposed into phases.

    ``end_to_end`` is the billed latency (the serving layer's
    ``finish - arrival``); the phases sum to it bit-exactly (checked at
    construction via :meth:`verify`).  Durations are in the producer's
    time unit — milliseconds in the serving stack, cycles when built
    straight from a :class:`~repro.sim.report.RunReport`.
    """

    tenant: str
    index: int
    arrival: float
    end_to_end: float
    phases: List[Phase] = field(default_factory=list)

    @property
    def durations(self) -> List[float]:
        return [p.duration for p in self.phases]

    def total(self) -> float:
        """Left-to-right sum of phase durations (the invariant's LHS)."""
        acc = 0.0
        for phase in self.phases:
            acc += phase.duration
        return acc

    def verify(self) -> None:
        """Raise unless the phases sum bit-exactly to ``end_to_end``."""
        total = self.total()
        if total != self.end_to_end:
            raise ObservabilityError(
                f"attribution invariant broken for {self.tenant}#{self.index}: "
                f"phases sum to {total!r}, end-to-end is {self.end_to_end!r}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "index": self.index,
            "arrival": self.arrival,
            "end_to_end": self.end_to_end,
            "phases": [p.as_dict() for p in self.phases],
        }


def _left_sum(values: Sequence[float]) -> float:
    acc = 0.0
    for value in values:
        acc += value
    return acc


def fit_durations(durations: Sequence[float], total: float) -> List[float]:
    """Adjust the tail of ``durations`` so they sum to ``total`` bit-exactly.

    The left-to-right float sum of the returned list equals ``total``
    exactly.  All entries stay non-negative; the correction lands on the
    last phase that can absorb it (walking backwards when a phase pins at
    zero) and is at most a few ulps of ``total`` for well-formed inputs.

    A Newton-style fixup handles almost every input in one step, but it
    can dither forever between two candidates whose sums bracket the
    target by one ulp each.  The left-to-right sum is monotone
    nondecreasing in any single addend, so a float binary search on the
    adjustable phase then finds the exact preimage whenever one exists.
    """
    if total < 0:
        raise ObservabilityError(f"total must be >= 0, got {total}")
    out = [float(d) for d in durations]
    if any(d < 0 for d in out):
        raise ObservabilityError(f"durations must be >= 0, got {out}")
    if not out:
        if total != 0.0:
            raise ObservabilityError(
                f"cannot fit empty durations to total {total}"
            )
        return out

    for j in range(len(out) - 1, -1, -1):
        # Newton fast path: one step lands exactly in the common case.
        for _ in range(4):
            acc = _left_sum(out)
            if acc == total:
                return out
            adjusted = out[j] - (acc - total)
            if adjusted < 0.0 or adjusted == out[j]:
                break
            out[j] = adjusted
        if _left_sum(out) == total:
            return out

        def f(x: float) -> float:
            out[j] = x
            return _left_sum(out)

        if f(0.0) > total:
            # Even pinned at zero this prefix overshoots: leave the
            # phase at zero and let an earlier phase absorb the rest.
            continue
        lo, hi = 0.0, total
        if f(hi) < total:
            # The remaining phases sum short of the target even with a
            # full-total phase here; only the degenerate all-zero tail
            # can reach this, so keep widening once.
            hi = 2.0 * total + 1.0
        for _ in range(256):
            mid = lo + (hi - lo) / 2.0
            if mid <= lo or mid >= hi:
                break
            if f(mid) < total:
                lo = mid
            else:
                hi = mid
        for candidate in (hi, lo):
            if f(candidate) == total:
                return out
        # No exact preimage at this phase (suffix re-rounding): keep the
        # closest under-approximation and walk left for the residual.
        out[j] = lo
    raise ObservabilityError(
        f"could not fit durations {durations!r} to total {total!r}"
    )


def scale_phases(
    specs: Sequence[PhaseSpec], total: float
) -> List[Tuple[str, str, float]]:
    """Scale phase weights to durations summing (approximately) to ``total``.

    Returns ``(name, category, duration)`` triples; callers feed the
    durations through :func:`fit_durations` against the billed total once
    per request.  Zero-weight specs keep a 0.0 duration so the phase
    structure is stable across requests.
    """
    weight_sum = 0.0
    for spec in specs:
        weight_sum += spec.weight
    if weight_sum <= 0.0:
        # Degenerate breakdown: bill everything as compute.
        return [(spec.name, spec.category, 0.0) for spec in specs]
    return [
        (spec.name, spec.category, total * (spec.weight / weight_sum))
        for spec in specs
    ]


def report_phases(report: "RunReport") -> List[PhaseSpec]:
    """Phase weights (in cycles) of one simulated network run.

    Per mapped segment: ``dram`` (exposed filter load), ``staging``
    (inter-segment NoC staging), ``compute`` (the segment's simulated
    compute window).  Whatever the tier added on top of the per-segment
    cycles — the closed-form tiers extrapolate extra request copies at
    the steady interval — lands in one trailing ``drain`` phase, so the
    weights always sum to ``report.total_cycles`` (up to float rounding;
    the per-request fit absorbs the ulps).  In the queueing tiers
    (streaming, event) a single-request run has a zero ``drain``: those
    tiers simulate every cycle they bill.
    """
    specs: List[PhaseSpec] = []
    accounted = 0.0
    for k, run in enumerate(report.runs):
        specs.append(PhaseSpec(f"seg{k}/dram", "dram", run.filter_load_cycles))
        specs.append(PhaseSpec(f"seg{k}/staging", "staging", run.staging_cycles))
        specs.append(PhaseSpec(f"seg{k}/compute", "compute", run.compute_cycles))
        accounted += (
            run.filter_load_cycles + run.staging_cycles + run.compute_cycles
        )
    drain = report.total_cycles - accounted
    specs.append(PhaseSpec("drain", "drain", max(0.0, drain)))
    return specs


def timeline_from_report(report: "RunReport") -> RequestTimeline:
    """Attribute one :class:`RunReport` directly (durations in cycles).

    The timeline's ``end_to_end`` is the report's ``total_cycles``; its
    phases are the :func:`report_phases` weights fit bit-exactly.  This
    is the sim-tier end of the attribution contract — the serving layer
    applies the same weights to its billed service milliseconds.
    """
    specs = report_phases(report)
    durations = fit_durations(
        [spec.weight for spec in specs], report.total_cycles
    )
    timeline = RequestTimeline(
        tenant=report.network.name,
        index=0,
        arrival=0.0,
        end_to_end=report.total_cycles,
        phases=[
            Phase(spec.name, spec.category, duration)
            for spec, duration in zip(specs, durations)
        ],
    )
    timeline.verify()
    return timeline


#: An attribution template key: ``(tenant, batch_count, generation)``.
#: The generation bumps on every resize that changed the tenant's
#: service time, so stale templates age out without a scan.
TemplateKey = Tuple[str, int, int]


class AttributionTable:
    """Per-tenant phase templates, applied to each completed request.

    The serving simulator owns one table per run.  The hot path is two
    dict operations per dispatch/completion: :meth:`lookup` caches the
    scaled service-phase durations per ``(tenant, batch_count,
    generation)`` — the breakdown is constant between resizes — and
    :meth:`record` counts how many billed completions used each
    template.  Per-request :class:`RequestTimeline` objects are built
    only on the *collected* path (telemetry enabled or explicitly
    requested); the per-tenant :meth:`aggregate` derives from the use
    counts alone, so it is identical whether or not timelines were
    collected.  ``invalidate`` bumps a tenant's generation after an
    elastic resize changed its service time.
    """

    def __init__(self) -> None:
        self._templates: Dict[TemplateKey, List[Tuple[str, str, float]]] = {}
        self._gen: Dict[str, int] = {}
        self.uses: Dict[TemplateKey, int] = {}

    def invalidate(self, tenant: str) -> None:
        self._gen[tenant] = self._gen.get(tenant, 0) + 1

    def lookup(
        self,
        tenant: str,
        count: int,
        specs_factory,
        service: float,
    ) -> Tuple[TemplateKey, List[Tuple[str, str, float]]]:
        """The (key, template) of one dispatch; builds on first use."""
        key = (tenant, count, self._gen.get(tenant, 0))
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = scale_phases(
                specs_factory(), service
            )
        return key, template

    def record(self, key: TemplateKey, n: int = 1) -> None:
        """Count ``n`` billed completions against their dispatch template."""
        self.uses[key] = self.uses.get(key, 0) + n

    def aggregate(
        self, tenant: str, queue_total: float, latency_total: float
    ) -> Tuple[List[str], List[str], List[float]]:
        """The tenant's whole-run attribution: names, categories, durations.

        ``queue_total`` is the tenant's summed queue wait and
        ``latency_total`` the summed billed latency (the SLO histogram's
        running total); the returned durations left-to-right sum to
        ``latency_total`` bit-exactly.  Phase order is first-seen over
        sorted template keys, so reruns — with or without collected
        timelines — produce byte-identical aggregates.
        """
        names: List[str] = ["queue", "admission"]
        categories: List[str] = ["queue", "admission"]
        totals: Dict[str, float] = {}
        category_of: Dict[str, str] = {}
        order: List[str] = []
        for key in sorted(self.uses):
            if key[0] != tenant:
                continue
            count = self.uses[key]
            for name, category, duration in self._templates[key]:
                if name not in category_of:
                    category_of[name] = category
                    totals[name] = 0.0
                    order.append(name)
                totals[name] += count * duration
        names.extend(order)
        categories.extend(category_of[name] for name in order)
        durations = [queue_total, 0.0] + [totals[name] for name in order]
        fitted = fit_durations(durations, latency_total)
        return names, categories, fitted

    def timeline(
        self,
        tenant: str,
        index: int,
        arrival: float,
        start: float,
        latency: float,
        template: Sequence[Tuple[str, str, float]],
    ) -> RequestTimeline:
        """Build (and verify) one request's timeline from its template."""
        queue_wait = start - arrival
        names = ["queue", "admission"]
        categories = ["queue", "admission"]
        durations = [queue_wait, 0.0]
        for name, category, duration in template:
            names.append(name)
            categories.append(category)
            durations.append(duration)
        fitted = fit_durations(durations, latency)
        timeline = RequestTimeline(
            tenant=tenant,
            index=index,
            arrival=arrival,
            end_to_end=latency,
            phases=[
                Phase(name, category, duration)
                for name, category, duration in zip(names, categories, fitted)
            ],
        )
        timeline.verify()
        return timeline


__all__ = [
    "AttributionTable",
    "PHASE_CATEGORIES",
    "TemplateKey",
    "Phase",
    "PhaseSpec",
    "RequestTimeline",
    "fit_durations",
    "fold_by_category",
    "report_phases",
    "scale_phases",
    "timeline_from_report",
]
