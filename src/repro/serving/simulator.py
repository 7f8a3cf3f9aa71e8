"""The online serving loop: arrivals -> admission -> partitions -> SLOs.

:class:`ServingSimulator` replays every tenant's arrival process on the
discrete-event kernel (:class:`repro.utils.events.EventQueue`) against a
:class:`~repro.serving.policies.ServingPolicy`:

* an arrival is admitted into its tenant's bounded queue (or shed — the
  shed request is counted and reported, never silently dropped);
* each *server* (one spatial partition, or the whole time-shared chip)
  serves the best queue head of its tenants — highest priority first,
  then the queue discipline (FIFO arrival order or EDF deadline order;
  inside one tenant's queue both are arrival order);
* elastic policies get a control tick every ``control_interval_ms``;
  an applied resize stalls the resized partitions for the weight
  re-staging time, and requests dequeued during the stall start service
  only when it ends — the wait is part of their reported latency, no
  sim-time is lost between dequeue and service start;
* completions, queue waits, and deadline outcomes land in per-tenant
  :class:`~repro.serving.slo.TenantReport` objects, and — when a
  telemetry sink is active — in the metrics registry and the Perfetto
  trace (one ``serving/server/*`` track per partition, resize instants
  on ``serving/partition``).

The mechanics live in :class:`~repro.serving.chip.ChipHandle` — one
chip's queues, servers, and accounting on its own event queue.
:meth:`ServingSimulator.run` is the one way to run a chip: validate and
prepare → admission preflight → bind a handle → ``start`` → drain →
``finish``.  A fleet (``repro.fleet``) runs each of its chips through it,
over arrivals the router routed beforehand.

Determinism: all randomness lives in the seeded arrival processes and
every simultaneous event resolves by the event queue's ``(time, seq)``
tie-break, so two runs with the same specs produce byte-identical
reports, metrics, and traces.  The tie-break is schedule order, and
tenants' initial arrivals are seeded in declaration order, so
declaration order decides ties between tenants: when two tenants'
seeded (or lockstep) arrivals coincide on a shared server, the tenant
declared first is admitted, and served, first.
"""

from __future__ import annotations

import numbers
from typing import Optional, Sequence

from repro.errors import PlanVerificationError, SimulationError
from repro.obs.monitor import SLOMonitor
from repro.serving.chip import ChipHandle
from repro.serving.queues import DISCIPLINES
from repro.serving.policies import ServingPolicy
from repro.serving.slo import ServingRunResult
from repro.serving.tenancy import TenantSpec
from repro.telemetry import TelemetrySink, current as _current_telemetry


def check_batch_requests(value: object) -> None:
    """Reject a ``batch_requests`` that is not an integer >= 1.

    A fractional one would serve rounded-up batches, or fail deep inside
    :meth:`ChipHandle.dispatch`; NumPy integers are accepted.
    """
    if not isinstance(value, numbers.Integral) or value < 1:
        raise SimulationError(
            f"batch_requests must be an integer >= 1, got {value!r}"
        )


class ServingSimulator:
    """Runs tenants against a serving policy on the discrete-event kernel."""

    def __init__(
        self,
        policy: ServingPolicy,
        *,
        discipline: str = "fifo",
        batch_requests: int = 1,
        preflight: bool = True,
        telemetry: Optional[TelemetrySink] = None,
        attribution: bool = True,
        collect_timelines: bool = False,
        monitor: Optional[SLOMonitor] = None,
    ) -> None:
        if discipline not in DISCIPLINES:
            raise SimulationError(
                f"unknown queue discipline {discipline!r}; choose from {DISCIPLINES}"
            )
        check_batch_requests(batch_requests)
        self.policy = policy
        self.discipline = discipline
        #: Static admission gate: after ``policy.prepare`` the policy's
        #: :meth:`~repro.serving.policies.ServingPolicy.preflight` report
        #: must be error-free, or the run raises
        #: :class:`~repro.errors.PlanVerificationError` before any
        #: sim-time is spent.  ``False`` opts out.
        self.preflight = preflight
        #: Weight-stationary request batching: a free server may pull up
        #: to this many queued requests *of the same tenant* and serve
        #: them back to back at the policy's batched service time
        #: (:meth:`ServingPolicy.batched_service_ms`), amortizing weight
        #: staging.  ``1`` is the historical one-request-at-a-time loop.
        self.batch_requests = batch_requests
        #: Per-request latency attribution (``repro.obs.timeline``):
        #: every billed completion is decomposed into queue / staging /
        #: compute / ... phases that sum bit-exactly to its latency.
        #: The default path only counts template uses (two dict ops per
        #: dispatch); full per-request ``RequestTimeline`` objects are
        #: built when a telemetry sink is active or
        #: ``collect_timelines=True``.
        self.attribution = attribution
        self.collect_timelines = collect_timelines
        #: Optional SLO monitor; its alerts land in the run result and
        #: the trace (instants).
        self.monitor = monitor
        self._telemetry = telemetry if telemetry is not None else _current_telemetry()

    def run(
        self,
        tenants: Sequence[TenantSpec],
        duration_ms: float,
        *,
        halt_ms: Optional[float] = None,
    ) -> ServingRunResult:
        """Serve ``duration_ms`` of arrivals; drain in-flight work after.

        ``halt_ms`` crashes the chip at that instant (see
        :meth:`ChipHandle.halt`).
        """
        if not tenants:
            raise SimulationError("serving run needs at least one tenant")
        if duration_ms <= 0:
            raise SimulationError(f"duration must be positive, got {duration_ms}")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise SimulationError(f"tenant names must be unique, got {names}")
        for tenant in tenants:
            if not tenant.deadline_ms > 0:  # NaN included
                raise SimulationError(
                    f"tenant {tenant.name!r}: deadline_ms must be positive, "
                    f"got {tenant.deadline_ms}"
                )

        for tenant in tenants:
            tenant.arrivals.reset()
        self.policy.prepare(tenants)
        if self.preflight:
            admission = self.policy.preflight(tenants)
            if admission is not None and not admission.ok:
                raise PlanVerificationError(
                    "serving admission rejected the partition layout:\n"
                    + admission.render(),
                    admission,
                )
        chip = ChipHandle(
            policy=self.policy,
            tenants=tenants,
            duration_ms=duration_ms,
            discipline=self.discipline,
            batch_requests=self.batch_requests,
            attribution=self.attribution,
            collect_timelines=self.collect_timelines,
            monitor=self.monitor,
            telemetry=self._telemetry,
            halt_ms=halt_ms,
        )
        chip.start()
        chip.queue.run()
        return chip.finish()
