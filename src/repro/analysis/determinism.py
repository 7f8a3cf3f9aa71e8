"""Event-batch determinism checking — the ``DET8xx`` rules.

The event queue dispatches events that share a timestamp in schedule
order (their sequence numbers).  A result is independent of that order
only when each same-timestamp batch is *commutative*: no two events of
different actors write the same station/queue/bank, and no event reads
what a peer writes at the same instant.  This module checks the property
over *declared* event footprints (:class:`EventAccess` batches), the way
:func:`repro.analysis.analyze_plan`'s ``det`` family does for a plan's
co-resident tenant waves:

* :func:`check_batches` — a happens-before pass over the declared
  accesses.  Two same-timestamp writes to one resource from different
  actors is ``DET801`` (order-sensitive batch, error); a same-timestamp
  read/write pair across actors is ``DET802`` (order-dependent read,
  warning).  Same-actor pairs are fine: one actor's events dispatch in
  sequence order, which the kernel guarantees.
* :func:`check_replay` — the dynamic backstop (``DET803``): run the
  same seeded simulation twice and diff the two structural trace
  signatures; any divergence means hidden nondeterminism.

The event kernel itself carries no annotations: a serving run's
same-timestamp ties are resolved by the kernel's ``(time, seq)``
tie-break, which the serving tests and CI's rerun ``cmp`` pin directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.analysis.diagnostics import LintReport
from repro.analysis.rules import rule


@dataclass(frozen=True)
class EventAccess:
    """One event's footprint: when it runs, who owns it, what it touches."""

    time: float
    actor: str
    tag: str = ""
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()


def check_batches(accesses: Sequence[EventAccess]) -> LintReport:
    """Classify every same-timestamp batch as commutative or conflicting.

    Deterministic: batches are visited in time order and resources in
    sorted order, so two runs over the same accesses render identical
    reports.
    """
    report = LintReport(program_length=len(accesses))
    batches: Dict[float, List[EventAccess]] = {}
    for access in accesses:
        batches.setdefault(access.time, []).append(access)
    for time in sorted(batches):
        batch = batches[time]
        writers: Dict[str, Set[str]] = {}
        readers: Dict[str, Set[str]] = {}
        for access in batch:
            for resource in access.writes:
                writers.setdefault(resource, set()).add(access.actor)
            for resource in access.reads:
                readers.setdefault(resource, set()).add(access.actor)
        for resource in sorted(writers):
            actors = writers[resource]
            if len(actors) > 1:
                report.add(rule("DET801").diag(
                    f"at t={time:g}, actors {', '.join(sorted(actors))} all "
                    f"write {resource!r}; the batch is not commutative and "
                    f"the result depends on schedule order",
                    opcode=resource,
                ))
            cross_readers = readers.get(resource, set()) - actors
            if cross_readers:
                report.add(rule("DET802").diag(
                    f"at t={time:g}, {', '.join(sorted(cross_readers))} "
                    f"read(s) {resource!r} while "
                    f"{', '.join(sorted(actors))} write(s) it; the read "
                    f"observes an order-dependent value",
                    opcode=resource,
                ))
    return report


def check_replay(
    run: Callable[[], str],
    *,
    runs: int = 2,
    label: str = "replay",
) -> LintReport:
    """The ``DET803`` dynamic backstop: N seeded runs must agree.

    ``run`` executes one full seeded simulation and returns a structural
    signature (e.g. a metrics snapshot's deterministic JSON, or a
    rendered event trace).  Any two differing signatures are a
    determinism violation the static batch check missed.
    """
    signatures = [run() for _ in range(max(2, runs))]
    report = LintReport(program_length=len(signatures))
    reference = signatures[0]
    for k, signature in enumerate(signatures[1:], start=2):
        if signature != reference:
            report.add(rule("DET803").diag(
                f"run {k} produced a structurally different trace than "
                f"run 1 ({_first_difference(reference, signature)})",
                opcode=label,
            ))
    return report


def _first_difference(a: str, b: str) -> str:
    if len(a) != len(b):
        return f"lengths differ: {len(a)} vs {len(b)}"
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            return f"first divergence at offset {i}: {ca!r} vs {cb!r}"
    return "identical prefixes"  # unreachable when a != b
