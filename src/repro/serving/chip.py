"""The per-chip serving engine: one chip's queues, servers, and SLOs.

:class:`ChipHandle` owns one chip's admission queues, server states,
dispatch/complete loop, attribution, and SLO accounting, bound to the
chip's own event queue.  :meth:`repro.serving.simulator.ServingSimulator.run`
builds one per run; :meth:`ChipHandle.start` seeds each tenant's arrival
process, in tenant declaration order (open-loop chains advance
themselves; closed-loop chains re-arm on completion), then the policy's
control ticks.  Simultaneous events dispatch in the order they were
scheduled (the event queue's ``(time, seq)`` tie-break), so that seeding
order decides ties between tenants.  A fleet chip is the same run over
the :class:`~repro.serving.arrivals.TraceArrivals` the router sent it.

The loop makes about one serve attempt per request: an arrival hands
off to its tenant's server only when it is idle, and a completion
serves its own server again.  Events carry bound methods and their
arguments, not closures, and every handler passes the event time it
holds to :meth:`ChipHandle.serve`.  A server with one tenant (every
fleet replica, every static or elastic partition) takes that tenant's
head request straight off its admission deque; only a shared server
ranks queue heads (:meth:`ChipHandle._pick`).  Arrivals are scheduled
directly, and the policy's degradation steps are read once per run, so
a healthy chip computes no scale per dispatch.

``halt_ms`` models a chip crash: at that instant the chip stops serving —
every queued request and every in-flight batch that would have finished
after the halt is counted in :attr:`TenantReport.failed` (accounted,
never silently dropped), and closed-loop chains on the chip die with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.monitor import DEFAULT_WINDOW_MS, AlertEvent, SLOMonitor
from repro.obs.timeline import AttributionTable
from repro.serving.policies import (
    ResizeAction,
    ServingPolicy,
    TenantObservation,
    step_factor,
)
from repro.serving.queues import AdmissionQueue
from repro.serving.slo import ResizeEvent, ServingRunResult, TenantReport
from repro.serving.tenancy import Request, TenantSpec
from repro.telemetry import TelemetrySink
from repro.utils.events import EventQueue


@dataclass(slots=True)
class _TenantState:
    """One tenant's queue, report, and server."""

    spec: TenantSpec
    report: TenantReport
    queue: AdmissionQueue
    server: _ServerState
    window_arrivals: int = 0   # arrivals since the last control tick
    arrival_index: int = 0     # next per-tenant request index


@dataclass(slots=True)
class _ServerState:
    """One server's occupancy, resize gate, and accumulated busy time."""

    name: str
    busy: bool = False
    free_at_ms: float = 0.0       # completion time of the in-flight request
    stall_until_ms: float = 0.0   # weight re-staging gate after a resize
    busy_ms: float = 0.0
    retry_scheduled: bool = False  # a post-stall dispatch is already queued
    tenants: List[_TenantState] = field(default_factory=list)


class ChipHandle:
    """One chip's serving mechanics on the chip's own event queue.

    Built by :meth:`repro.serving.simulator.ServingSimulator.run`, which
    validates the tenants and runs the policy preflight first.  The
    handle is single-run: :meth:`finish` closes the monitor and
    attribution and returns the
    :class:`~repro.serving.slo.ServingRunResult`.
    """

    def __init__(
        self,
        *,
        policy: ServingPolicy,
        tenants: Sequence[TenantSpec],
        duration_ms: float,
        discipline: str,
        batch_requests: int,
        attribution: bool,
        collect_timelines: bool,
        monitor: Optional[SLOMonitor],
        telemetry: TelemetrySink,
        halt_ms: Optional[float] = None,
    ) -> None:
        self.policy = policy
        self.duration_ms = duration_ms
        self.queue = EventQueue(telemetry=telemetry)
        self.discipline = discipline
        self.batch_requests = batch_requests
        self.halt_ms = halt_ms
        self.halted = False
        self.names: List[str] = [t.name for t in tenants]
        self.reports: Dict[str, TenantReport] = {
            t.name: TenantReport(tenant=t.name) for t in tenants
        }
        #: Per-tenant state in declaration order, the order :meth:`start`
        #: seeds arrivals in.  The tenant's server is resolved here,
        #: once, not per event.
        self.tenants: Dict[str, _TenantState] = {}
        self.servers: Dict[str, _ServerState] = {}
        for spec in tenants:
            server = policy.server_of(spec.name)
            state = self.servers.get(server)
            if state is None:
                state = self.servers[server] = _ServerState(server)
            tenant = self.tenants[spec.name] = _TenantState(
                spec=spec,
                report=self.reports[spec.name],
                queue=AdmissionQueue(
                    capacity=spec.queue_capacity, discipline=discipline
                ),
                server=state,
            )
            state.tenants.append(tenant)
        self.resizes: List[ResizeEvent] = []
        #: The next request's global admission order (``Request.seq``).
        self.admission_seq = 0
        #: The policy's degradation steps, read once for the run.
        self.steps = policy.degradation
        self.sink = telemetry
        #: The sink's ``enabled`` flag, read once: with it false (and no
        #: monitor) the per-request path formats no metric path.
        self._enabled = telemetry.enabled
        self.table: Optional[AttributionTable] = (
            AttributionTable() if attribution else None
        )
        self.collect = self.table is not None and (
            collect_timelines or self._enabled
        )
        #: Attribution slots ``[(key, template), completed_requests]``:
        #: every slot of the run in creation order, and per tenant a
        #: list indexed by batch size of its current generation's slots
        #: (see AttributionTable).
        self.attr_slots: List[list] = []
        self.attr_cache: Dict[str, list] = {}
        self.monitor = monitor
        self.window = monitor.config.window_ms if monitor else DEFAULT_WINDOW_MS
        self.alerts: List[AlertEvent] = []
        #: Last chip-wide degradation factor seen at dispatch; a change
        #: invalidates every tenant's attribution templates (their
        #: service windows changed shape-preserving scale, but the cached
        #: absolute durations are stale).
        self._last_scale = 1.0

    # -- telemetry helpers -----------------------------------------------------

    def _count(self, path: str) -> None:
        """Bump one counter; callers check ``self._enabled`` first."""
        assert self.sink.registry is not None
        self.sink.registry.counter(path).inc()

    def _poll_monitor(self, now: float) -> None:
        monitor = self.monitor
        if monitor is None:
            return
        fresh = monitor.poll(now)
        if not fresh:
            return
        self.alerts.extend(fresh)
        if self._enabled:
            assert self.sink.trace is not None
            for alert in fresh:
                self.sink.trace.instant(
                    "serving/slo",
                    f"{alert.kind}/{alert.tenant}",
                    alert.time_ms,
                    args=alert.as_dict(),
                )

    # -- service ---------------------------------------------------------------

    @staticmethod
    def _pick(state: _ServerState) -> Optional[_TenantState]:
        """The tenant whose queue head ``state`` serves next, if any."""
        best: Optional[_TenantState] = None
        best_rank: Optional[tuple] = None
        for tenant in state.tenants:
            key = tenant.queue.peek_key()
            if key is None:
                continue
            rank = (-tenant.spec.priority, key)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = tenant
        return best

    def dispatch(self, state: _ServerState, now: float) -> None:
        """Serve ``state`` at ``now`` if it is free (resize wake-ups)."""
        if not state.busy and not self.halted:
            self.serve(state, now)

    def resume(self, state: _ServerState, now: float) -> None:
        """Serve ``state`` once its post-resize stall has ended at ``now``."""
        state.retry_scheduled = False
        self.dispatch(state, now)

    def serve(self, state: _ServerState, now: float) -> None:
        """Start ``state``'s next batch at ``now``, the event time.

        The caller checked that the server is idle and the chip alive.
        """
        if state.stall_until_ms > now:
            # The partition is mid-resize: service may only start when
            # re-staging ends.  The wait is real sim-time — the retry
            # event carries the dequeue forward, never drops it.
            if not state.retry_scheduled:
                state.retry_scheduled = True
                until = state.stall_until_ms
                self.queue.schedule(
                    until, self.resume, state, until, tag="serving/resume"
                )
            return
        # A one-tenant server (every partition and fleet replica) has no
        # queue heads to rank.
        tenants = state.tenants
        tenant = tenants[0] if len(tenants) == 1 else self._pick(state)
        if tenant is None:
            return
        requests = tenant.queue.requests
        if not requests:
            return
        request = requests.popleft()
        # Weight-stationary batching: pull further queued requests of
        # the *same tenant* (same weights) into this dispatch, up to
        # the batch limit; they serve back to back with staging paid
        # once.  batch_requests=1 keeps the historical loop exactly.
        batch = [request]
        n = 1
        while n < self.batch_requests and requests:
            batch.append(requests.popleft())
            n += 1
        for req in batch:
            req.start_ms = now
        if n == 1:
            service = self.policy.service_ms(request.tenant)
        else:
            service = self.policy.batched_service_ms(request.tenant, n)
        table = self.table
        steps = self.steps
        if steps:
            scale = step_factor(steps, now)
            service *= scale
            if scale != self._last_scale:
                self._last_scale = scale
                if table is not None:
                    # A degradation step changed every service window;
                    # the cached absolute phase durations no longer
                    # apply.
                    for name in self.attr_cache:
                        table.invalidate(name)
                    self.attr_cache.clear()
        if table is not None:
            # Snapshot the dispatch-time slot: a resize between now
            # and completion must not re-attribute the in-flight
            # batch.  The steady state is allocation-free (dict
            # subscript + list index); the table is only touched on a
            # template miss and once per slot at the end of the run.
            try:
                per = self.attr_cache[request.tenant]
            except KeyError:
                per = self.attr_cache[request.tenant] = [None] * (
                    self.batch_requests + 1
                )
            slot = per[n]
            if slot is None:
                slot = per[n] = [
                    table.lookup(
                        request.tenant,
                        n,
                        lambda: self.policy.service_phases(
                            request.tenant, n
                        ),
                        service,
                    ),
                    0,
                ]
                self.attr_slots.append(slot)
        else:
            slot = None
        finish = now + service
        state.busy = True
        state.free_at_ms = finish
        if self._enabled:
            assert self.sink.trace is not None
            args: Dict[str, object] = {"request": request.index}
            if n > 1:
                args["batched"] = n
            self.sink.trace.complete(
                f"serving/server/{state.name}",
                request.tenant,
                ts=now,
                dur=service,
                args=args,
            )
        self.queue.schedule(
            finish, self.complete, state, tenant, batch, service, finish, slot,
            tag="serving/completion",
        )

    def complete(
        self,
        state: _ServerState,
        tenant: _TenantState,
        batch: List[Request],
        service: float,
        finish: float,
        slot: Optional[list],
    ) -> None:
        """Account one finished batch of ``tenant`` and re-arm the server.

        A batch that finishes inside the window is billed to ``slot``,
        the attribution slot it dispatched with; a halted or overrun
        batch bills nothing.
        """
        state.busy = False
        report = tenant.report
        name = tenant.spec.name
        enabled = self._enabled
        if self.halted:
            # The chip crashed mid-service: the batch never finished.
            # Every request of it is accounted as failed (not completed,
            # not silently dropped) and closed-loop chains end here.
            for request in batch:
                report.failed += 1
                if enabled:
                    self._count(f"serving/tenant/{name}/failed")
            return
        state.busy_ms += service
        # Every request of the batch finishes when the batch does;
        # the per-request service share is what SLO accounting bills.
        n = len(batch)
        share = service / n
        monitor = self.monitor
        sink = self.sink
        arrivals = tenant.spec.arrivals
        closed_loop = arrivals.closed_loop
        duration_ms = self.duration_ms
        in_window = finish <= duration_ms
        if in_window and slot is not None:
            slot[1] += n
        for request in batch:
            if in_window:
                latency = finish - request.arrival_ms
                met_deadline = finish <= request.deadline_ms
                report.record_completion(
                    latency,
                    request.start_ms - request.arrival_ms,
                    share,
                    met_deadline=met_deadline,
                )
                if self.collect and slot is not None:
                    assert self.table is not None
                    report.timelines.append(
                        self.table.timeline(
                            name,
                            request.index,
                            request.arrival_ms,
                            request.start_ms,
                            latency,
                            slot[0][1],
                        )
                    )
                if monitor is not None:
                    monitor.record_completion(
                        name, finish, latency, met_deadline
                    )
                if enabled:
                    assert sink.registry is not None
                    self._count(f"serving/tenant/{name}/completed")
                    if not met_deadline:
                        self._count(f"serving/tenant/{name}/deadline_misses")
                    sink.registry.histogram(
                        f"serving/tenant/{name}/latency_ms",
                        bounds=report.histogram.bounds,
                    ).observe(latency)
                    sink.registry.windowed(
                        f"serving/tenant/{name}/throughput",
                        self.window,
                    ).observe(finish, 1.0)
                    sink.registry.windowed(
                        f"serving/tenant/{name}/latency_windowed",
                        self.window,
                        bounds=report.histogram.bounds,
                    ).observe(finish, latency)
            else:
                report.overrun += 1
            if closed_loop:
                # The closed-loop chain's next arrival; past the window
                # it is dropped.
                t = arrivals.after_completion_ms(finish)
                if t is None or t >= duration_ms:
                    continue
                self.queue.schedule(
                    t, self.arrive, tenant, t, tag="serving/arrival"
                )
        if enabled:
            assert sink.registry is not None
            sink.registry.windowed(
                f"serving/server/{state.name}/busy", self.window
            ).add_range(finish - service, finish)
        if monitor is not None:
            self._poll_monitor(finish)
        self.serve(state, finish)

    # -- arrivals --------------------------------------------------------------

    def arrive(self, tenant: _TenantState, t: float) -> None:
        """Admit one arrival of ``tenant`` at ``t`` and chain the next.

        An open-loop chain's next arrival is scheduled here, and a
        closed-loop one's by :meth:`complete`; each site drops an
        arrival that is ``None`` or lands at or past the window's end.
        """
        spec = tenant.spec
        name = spec.name
        report = tenant.report
        report.arrivals += 1
        tenant.window_arrivals += 1
        enabled = self._enabled
        if enabled:
            self._count(f"serving/tenant/{name}/arrivals")
        if self.halted:
            # The chip is dead: the arrival is accounted as failed and
            # the open-loop chain keeps producing (the router owns
            # whether traffic still lands here; normally it does not).
            report.failed += 1
            if enabled:
                self._count(f"serving/tenant/{name}/failed")
        else:
            seq = self.admission_seq
            self.admission_seq = seq + 1
            request = Request(
                name, tenant.arrival_index, t, t + spec.deadline_ms, seq
            )
            tenant.arrival_index += 1
            queue = tenant.queue
            if queue.offer(request) is None:
                report.admitted += 1
            else:
                report.shed += 1
                if enabled:
                    assert self.sink.registry is not None
                    self._count(f"serving/tenant/{name}/shed")
                    self.sink.registry.windowed(
                        f"serving/tenant/{name}/shed_windowed",
                        self.window,
                    ).observe(t, 1.0)
            if enabled:
                assert self.sink.registry is not None
                self.sink.registry.gauge(
                    f"serving/tenant/{name}/max_queue_depth"
                ).max(queue.depth)
                self.sink.registry.windowed(
                    f"serving/tenant/{name}/queue_depth", self.window
                ).set(t, float(queue.depth))
            monitor = self.monitor
            if monitor is not None:
                monitor.record_queue_depth(name, t, queue.depth)
                self._poll_monitor(t)
            server = tenant.server
            if not server.busy:
                self.serve(server, t)
        arrivals = spec.arrivals
        if arrivals.closed_loop:
            return
        t = arrivals.next_ms(t)
        if t is None or t >= self.duration_ms:
            return
        self.queue.schedule(t, self.arrive, tenant, t, tag="serving/arrival")

    # -- elastic control -------------------------------------------------------

    def control(self, t: float) -> None:
        """One policy control tick (elastic resize opportunity)."""
        self._poll_monitor(t)
        observations = {
            name: TenantObservation(
                arrivals=tenant.window_arrivals,
                queue_depth=tenant.queue.depth,
                busy=tenant.server.busy,
            )
            for name, tenant in self.tenants.items()
        }
        for tenant in self.tenants.values():
            tenant.window_arrivals = 0
        if self.halted:
            return
        action = self.policy.on_interval(t, observations)
        if action is not None:
            self.apply_resize(t, action)

    def apply_resize(self, t: float, action: ResizeAction) -> None:
        """Apply one elastic re-partitioning at ``t``."""
        table = self.table
        if table is not None:
            # The resized tenants' service times (and so their phase
            # templates) changed; in-flight batches keep the slot
            # they dispatched with.
            for name in action.stall_ms:
                self.attr_cache.pop(name, None)
                table.invalidate(name)
        if self.monitor is not None:
            self.monitor.record_resize(t)
        for name, stall in action.stall_ms.items():
            state = self.tenants[name].server
            # Re-staging begins once the in-flight request drains.
            begin = state.free_at_ms if state.busy else t
            state.stall_until_ms = max(
                state.stall_until_ms, max(begin, t) + stall
            )
        self.resizes.append(
            ResizeEvent(
                time_ms=t,
                shares=dict(action.shares),
                region_starts=dict(action.region_starts),
                stall_ms=dict(action.stall_ms),
                placements_recomputed=action.placements_recomputed,
            )
        )
        if self._enabled:
            assert self.sink.registry is not None and self.sink.trace is not None
            self._count("serving/resizes")
            for name, share in action.shares.items():
                self.sink.registry.gauge(
                    f"serving/partition/{name}/cores"
                ).set(share)
            self.sink.trace.instant(
                "serving/partition",
                "resize",
                t,
                args={
                    "shares": dict(sorted(action.shares.items())),
                    "stall_ms": dict(sorted(action.stall_ms.items())),
                },
            )
        # Wake idle resized servers so their queues re-arm behind the
        # stall gate instead of sleeping until the next arrival.
        for name in action.stall_ms:
            self.dispatch(self.tenants[name].server, t)

    # -- crash -----------------------------------------------------------------

    def halt(self, t: float) -> None:
        """Crash the chip at ``t``: queues drain into ``failed``, service stops.

        Requests in the admission queues never start; in-flight batches
        whose completion events fire at or after ``t`` are discarded by
        :meth:`complete` (both paths count into
        :attr:`~repro.serving.slo.TenantReport.failed`).  Deterministic:
        queues drain in tenant declaration order, requests in queue
        order.
        """
        self.halted = True
        for name, tenant in self.tenants.items():
            requests = tenant.queue.requests
            while requests:
                requests.popleft()
                tenant.report.failed += 1
                if self._enabled:
                    self._count(f"serving/tenant/{name}/failed")
        if self._enabled:
            assert self.sink.trace is not None
            self.sink.trace.instant(
                "serving/chip", "halt", t, args={"halt_ms": t}
            )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Seed self-driven arrivals, control ticks, and the halt event."""
        for tenant in self.tenants.values():
            for t in tenant.spec.arrivals.initial_arrivals():
                if t is None or t >= self.duration_ms:
                    continue
                self.queue.schedule(
                    t, self.arrive, tenant, t, tag="serving/arrival"
                )
        interval = self.policy.control_interval_ms
        if interval is not None:
            ticks = int(math.ceil(self.duration_ms / interval)) - 1
            for k in range(1, ticks + 1):
                t = k * interval
                if t < self.duration_ms:
                    self.queue.schedule(
                        t, self.control, t, tag="serving/control"
                    )
        if self.halt_ms is not None:
            self.queue.schedule(
                self.halt_ms, self.halt, self.halt_ms, tag="serving/halt"
            )

    def finish(self) -> ServingRunResult:
        """Close the monitor and attribution; build the run result."""
        # Close the monitor's final window (nothing arrives after the
        # drain, so every open window is decidable now).
        self._poll_monitor(self.queue.now + self.window)

        table = self.table
        if table is not None:
            for (key, _), completed in self.attr_slots:
                if completed:
                    table.record(key, completed)
            for name in self.names:
                report = self.reports[name]
                phase_names, phase_categories, durations = table.aggregate(
                    name,
                    report.queue_wait_ms_total,
                    report.histogram.total,
                )
                report.attribution = dict(zip(phase_names, durations))
                report.attribution_categories = dict(
                    zip(phase_names, phase_categories)
                )

        return ServingRunResult(
            policy=self.policy.name,
            discipline=self.discipline,
            duration_ms=self.duration_ms,
            reports=self.reports,
            resizes=self.resizes,
            servers={n: t.server.name for n, t in self.tenants.items()},
            server_busy_ms={
                s: st.busy_ms for s, st in sorted(self.servers.items())
            },
            final_shares=self.policy.shares(),
            alerts=self.alerts,
        )


__all__ = ["ChipHandle"]
