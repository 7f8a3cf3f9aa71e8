"""The per-chip serving engine: one chip's queues, servers, and SLOs.

:class:`ChipHandle` is the machinery that used to live as closures inside
:meth:`repro.serving.simulator.ServingSimulator.run`, extracted so a chip
can be driven *headless* by an external router (``repro.fleet``): the
handle owns the admission queues, server states, dispatch/complete loop,
attribution, and SLO accounting, while the caller owns the event queue
and decides where arrivals come from.

Two driving modes share every line of the service path:

* **self-driven** — :meth:`start` seeds each tenant's arrival process
  (open-loop chains advance themselves; closed-loop chains re-arm on
  completion) and schedules the policy's control ticks.  This is exactly
  the historical ``ServingSimulator.run`` behaviour, pinned byte-identical
  by ``tests/serving/test_chip_handle.py``.
* **router-driven** — the fleet router pre-routes arrivals into
  per-tenant :class:`~repro.serving.arrivals.TraceArrivals` and shares
  one event queue across chips; :meth:`start` then replays exactly the
  arrivals each chip was routed.

``halt_ms`` models a chip crash: at that instant the chip stops serving —
every queued request and every in-flight batch that would have finished
after the halt is counted in :attr:`TenantReport.failed` (accounted,
never silently dropped), and closed-loop chains on the chip die with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.monitor import DEFAULT_WINDOW_MS, AlertEvent, SLOMonitor
from repro.obs.timeline import AttributionTable
from repro.serving.policies import ResizeAction, ServingPolicy, TenantObservation
from repro.serving.queues import AdmissionQueue
from repro.serving.slo import ResizeEvent, ServingRunResult, TenantReport
from repro.serving.tenancy import Request, TenantSpec
from repro.telemetry import TelemetrySink
from repro.utils.events import EventQueue


@dataclass
class _ServerState:
    """One server's occupancy, resize gate, and accumulated busy time."""

    busy: bool = False
    free_at_ms: float = 0.0       # completion time of the in-flight request
    stall_until_ms: float = 0.0   # weight re-staging gate after a resize
    busy_ms: float = 0.0
    retry_scheduled: bool = False  # a post-stall dispatch is already queued
    tenants: List[str] = field(default_factory=list)


class ChipHandle:
    """One chip's serving mechanics, bound to an external event queue.

    Construct via :meth:`repro.serving.simulator.ServingSimulator.open`
    (which validates tenants and runs the policy preflight) rather than
    directly.  The handle is single-run: :meth:`finish` closes the
    monitor and attribution and returns the
    :class:`~repro.serving.slo.ServingRunResult`.
    """

    def __init__(
        self,
        *,
        policy: ServingPolicy,
        tenants: Sequence[TenantSpec],
        duration_ms: float,
        queue: EventQueue,
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
        self.queue = queue
        self.discipline = discipline
        self.batch_requests = batch_requests
        self.halt_ms = halt_ms
        self.halted = False
        self.specs: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        self.names: List[str] = [t.name for t in tenants]
        self.reports: Dict[str, TenantReport] = {
            t.name: TenantReport(tenant=t.name) for t in tenants
        }
        self.queues: Dict[str, AdmissionQueue] = {
            t.name: AdmissionQueue(
                capacity=t.queue_capacity, discipline=discipline
            )
            for t in tenants
        }
        self.servers: Dict[str, _ServerState] = {}
        for tenant in tenants:
            server = policy.server_of(tenant.name)
            state = self.servers.setdefault(server, _ServerState())
            state.tenants.append(tenant.name)
        self.resizes: List[ResizeEvent] = []
        self.window_arrivals: Dict[str, int] = {t.name: 0 for t in tenants}
        self.arrival_index: Dict[str, int] = {t.name: 0 for t in tenants}
        self.admission_seq = itertools.count()
        self.sink = telemetry
        self.table: Optional[AttributionTable] = (
            AttributionTable() if attribution else None
        )
        self.collect = self.table is not None and (
            collect_timelines or self.sink.enabled
        )
        #: Dispatch-side attribution cache: tenant -> list indexed by
        #: batch size of ``[(key, template), billed_dispatches]`` slots
        #: for the tenant's current generation (see AttributionTable).
        self.attr_cache: Dict[str, list] = {}
        self.monitor = monitor
        self.window = monitor.config.window_ms if monitor else DEFAULT_WINDOW_MS
        self.alerts: List[AlertEvent] = []
        self.pending_alerts: List[AlertEvent] = []
        #: Last chip-wide degradation factor seen at dispatch; a change
        #: invalidates every tenant's attribution templates (their
        #: service windows changed shape-preserving scale, but the cached
        #: absolute durations are stale).
        self._last_scale = 1.0

    # -- telemetry helpers -----------------------------------------------------

    def _count(self, path: str) -> None:
        if self.sink.enabled:
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
        self.pending_alerts.extend(fresh)
        if self.sink.enabled:
            assert self.sink.trace is not None
            for alert in fresh:
                self.sink.trace.instant(
                    "serving/slo",
                    f"{alert.kind}/{alert.tenant}",
                    alert.time_ms,
                    args=alert.as_dict(),
                )

    def _flush_attribution(self, tenant: str) -> None:
        per = self.attr_cache.pop(tenant, None)
        if per is None:
            return
        table = self.table
        assert table is not None
        for n, slot in enumerate(per):
            if slot is not None and slot[1]:
                # Each billed dispatch of size n completed n requests.
                table.record(slot[0][0], slot[1] * n)

    # -- service ---------------------------------------------------------------

    def _pick(self, server: str) -> Optional[Request]:
        best_name: Optional[str] = None
        best_rank: Optional[tuple] = None
        for name in self.servers[server].tenants:
            key = self.queues[name].peek_key()
            if key is None:
                continue
            rank = (-self.specs[name].priority, key)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_name = name
        if best_name is None:
            return None
        return self.queues[best_name].pop()

    def dispatch(self, server: str) -> None:
        """Serve the best queued request of ``server``'s tenants, if free."""
        if self.halted:
            return
        state = self.servers[server]
        if state.busy:
            return
        queue = self.queue
        now = queue.now
        if state.stall_until_ms > now:
            # The partition is mid-resize: service may only start when
            # re-staging ends.  The wait is real sim-time — the retry
            # event carries the dequeue forward, never drops it.
            if not state.retry_scheduled:
                state.retry_scheduled = True

                def resume() -> None:
                    state.retry_scheduled = False
                    self.dispatch(server)

                queue.schedule(
                    state.stall_until_ms, resume, tag="serving/resume",
                    actor=f"server/{server}",
                    writes=(f"server/{server}",),
                )
            return
        request = self._pick(server)
        if request is None:
            return
        # Weight-stationary batching: pull further queued requests of
        # the *same tenant* (same weights) into this dispatch, up to
        # the batch limit; they serve back to back with staging paid
        # once.  batch_requests=1 keeps the historical loop exactly.
        batch = [request]
        tenant_queue = self.queues[request.tenant]
        while (
            len(batch) < self.batch_requests
            and tenant_queue.peek_key() is not None
        ):
            batch.append(tenant_queue.pop())
        for req in batch:
            req.start_ms = now
        if len(batch) == 1:
            service = self.policy.service_ms(request.tenant)
        else:
            service = self.policy.batched_service_ms(
                request.tenant, len(batch)
            )
        scale = self.policy.service_scale(now)
        if scale != 1.0:
            service *= scale
        table = self.table
        if table is not None:
            if scale != self._last_scale:
                # A degradation step changed every service window; the
                # cached absolute phase durations no longer apply.
                for name in list(self.attr_cache):
                    self._flush_attribution(name)
                    table.invalidate(name)
                self._last_scale = scale
            # Snapshot the dispatch-time template key: a resize
            # between now and completion must not re-attribute the
            # in-flight batch.  The steady state is allocation-free
            # (dict subscript + two list indexes + integer bump);
            # the table is only touched on a template miss and when
            # a generation flushes.
            n = len(batch)
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
            attr = slot[0]
            finish = now + service
            if finish <= self.duration_ms:
                # Billing happens here rather than at completion:
                # the queue drains every event, so a dispatch whose
                # finish lands inside the run always completes, and
                # all n requests of the batch finish together.
                slot[1] += 1
        else:
            attr = None
            finish = now + service
        state.busy = True
        state.free_at_ms = finish
        if self.sink.enabled:
            assert self.sink.trace is not None
            args: Dict[str, object] = {"request": request.index}
            if len(batch) > 1:
                args["batched"] = len(batch)
            self.sink.trace.complete(
                f"serving/server/{server}",
                request.tenant,
                ts=now,
                dur=service,
                args=args,
            )
        queue.schedule(
            finish,
            lambda: self.complete(server, batch, service, finish, attr),
            tag="serving/completion",
            actor=f"server/{server}",
            writes=(f"server/{server}",),
        )

    def complete(
        self,
        server: str,
        batch: List[Request],
        service: float,
        finish: float,
        attr: Optional[tuple],
    ) -> None:
        """Account one finished batch and re-arm the server."""
        state = self.servers[server]
        state.busy = False
        if self.halted:
            # The chip crashed mid-service: the batch never finished.
            # Every request of it is accounted as failed (not completed,
            # not silently dropped) and closed-loop chains end here.
            for request in batch:
                self.reports[request.tenant].failed += 1
                self._count(f"serving/tenant/{request.tenant}/failed")
            return
        state.busy_ms += service
        # Every request of the batch finishes when the batch does;
        # the per-request service share is what SLO accounting bills.
        share = service / len(batch)
        duration_ms = self.duration_ms
        monitor = self.monitor
        sink = self.sink
        for request in batch:
            request.finish_ms = finish
            report = self.reports[request.tenant]
            if finish <= duration_ms:
                report.record_completion(
                    request.latency_ms,
                    request.queue_wait_ms,
                    share,
                    met_deadline=request.met_deadline,
                )
                if self.collect and attr is not None:
                    assert self.table is not None
                    report.timelines.append(
                        self.table.timeline(
                            request.tenant,
                            request.index,
                            request.arrival_ms,
                            request.start_ms,
                            request.latency_ms,
                            attr[1],
                        )
                    )
                if monitor is not None:
                    monitor.record_completion(
                        request.tenant,
                        finish,
                        request.latency_ms,
                        request.met_deadline,
                    )
                self._count(f"serving/tenant/{request.tenant}/completed")
                if not request.met_deadline:
                    self._count(
                        f"serving/tenant/{request.tenant}/deadline_misses"
                    )
                if sink.enabled:
                    assert sink.registry is not None
                    sink.registry.histogram(
                        f"serving/tenant/{request.tenant}/latency_ms",
                        bounds=report.histogram.bounds,
                    ).observe(request.latency_ms)
                    sink.registry.windowed(
                        f"serving/tenant/{request.tenant}/throughput",
                        self.window,
                    ).observe(finish, 1.0)
                    sink.registry.windowed(
                        f"serving/tenant/{request.tenant}/latency_windowed",
                        self.window,
                        bounds=report.histogram.bounds,
                    ).observe(finish, request.latency_ms)
            else:
                report.overrun += 1
            spec = self.specs[request.tenant]
            if spec.arrivals.closed_loop:
                self.schedule_arrival(
                    spec, spec.arrivals.after_completion_ms(finish)
                )
        if sink.enabled:
            assert sink.registry is not None
            sink.registry.windowed(
                f"serving/server/{server}/busy", self.window
            ).add_range(finish - service, finish)
        self._poll_monitor(finish)
        self.dispatch(server)

    # -- arrivals --------------------------------------------------------------

    def schedule_arrival(self, tenant: TenantSpec, t: Optional[float]) -> None:
        """Schedule one future arrival of ``tenant`` (drops past-window)."""
        if t is None or t >= self.duration_ms:
            return
        # Happens-before annotation: an arrival's primary effect is
        # its own tenant's admission queue, so simultaneous arrivals
        # of *different* tenants commute (the determinism scan checks
        # exactly this).
        self.queue.schedule(
            t, lambda: self.arrive(tenant, t), tag="serving/arrival",
            actor=f"tenant/{tenant.name}",
            writes=(f"queue/{tenant.name}",),
        )

    def arrive(self, tenant: TenantSpec, t: float) -> None:
        """Admit one arrival of ``tenant`` at ``t`` and chain the next."""
        report = self.reports[tenant.name]
        report.arrivals += 1
        self.window_arrivals[tenant.name] += 1
        self._count(f"serving/tenant/{tenant.name}/arrivals")
        if self.halted:
            # The chip is dead: the arrival is accounted as failed and
            # the open-loop chain keeps producing (the router owns
            # whether traffic still lands here; normally it does not).
            report.failed += 1
            self._count(f"serving/tenant/{tenant.name}/failed")
            if not tenant.arrivals.closed_loop:
                self.schedule_arrival(tenant, tenant.arrivals.next_ms(t))
            return
        request = Request(
            tenant=tenant.name,
            index=self.arrival_index[tenant.name],
            arrival_ms=t,
            deadline_ms=t + tenant.deadline_ms,
            priority=tenant.priority,
            seq=next(self.admission_seq),
        )
        self.arrival_index[tenant.name] += 1
        victim = self.queues[tenant.name].offer(request)
        if victim is None or victim is not request:
            report.admitted += 1
        if victim is not None:
            self.reports[victim.tenant].shed += 1
            self._count(f"serving/tenant/{victim.tenant}/shed")
            if self.sink.enabled:
                assert self.sink.registry is not None
                self.sink.registry.windowed(
                    f"serving/tenant/{victim.tenant}/shed_windowed",
                    self.window,
                ).observe(t, 1.0)
        if self.sink.enabled:
            assert self.sink.registry is not None
            self.sink.registry.gauge(
                f"serving/tenant/{tenant.name}/max_queue_depth"
            ).max(self.queues[tenant.name].depth)
            self.sink.registry.windowed(
                f"serving/tenant/{tenant.name}/queue_depth", self.window
            ).set(t, float(self.queues[tenant.name].depth))
        if self.monitor is not None:
            self.monitor.record_queue_depth(
                tenant.name, t, self.queues[tenant.name].depth
            )
        self._poll_monitor(t)
        self.dispatch(self.policy.server_of(tenant.name))
        if not tenant.arrivals.closed_loop:
            self.schedule_arrival(tenant, tenant.arrivals.next_ms(t))

    # -- elastic control -------------------------------------------------------

    def control(self, t: float) -> None:
        """One policy control tick (elastic resize opportunity)."""
        self._poll_monitor(t)
        if self.pending_alerts:
            self.policy.on_alerts(t, tuple(self.pending_alerts))
            self.pending_alerts.clear()
        observations = {
            name: TenantObservation(
                arrivals=self.window_arrivals[name],
                queue_depth=self.queues[name].depth,
                busy=self.servers[self.policy.server_of(name)].busy,
            )
            for name in self.names
        }
        for name in self.names:
            self.window_arrivals[name] = 0
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
            # templates) changed; in-flight batches keep the key
            # they dispatched with.
            for name in action.stall_ms:
                self._flush_attribution(name)
                table.invalidate(name)
        if self.monitor is not None:
            self.monitor.record_resize(t)
        for name, stall in action.stall_ms.items():
            server = self.policy.server_of(name)
            state = self.servers[server]
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
        self._count("serving/resizes")
        if self.sink.enabled:
            assert self.sink.registry is not None and self.sink.trace is not None
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
            self.dispatch(self.policy.server_of(name))

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
        for name in self.names:
            queue = self.queues[name]
            report = self.reports[name]
            while queue.depth:
                queue.pop()
                report.failed += 1
                self._count(f"serving/tenant/{name}/failed")
        if self.sink.enabled:
            assert self.sink.trace is not None
            self.sink.trace.instant(
                "serving/chip", "halt", t, args={"halt_ms": t}
            )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Seed self-driven arrivals, control ticks, and the halt event."""
        for name in self.names:
            tenant = self.specs[name]
            for t in tenant.arrivals.initial_arrivals():
                self.schedule_arrival(tenant, t)
        interval = self.policy.control_interval_ms
        if interval is not None:
            ticks = int(math.ceil(self.duration_ms / interval)) - 1
            for k in range(1, ticks + 1):
                t = k * interval
                if t < self.duration_ms:
                    self.queue.schedule(
                        t, lambda t=t: self.control(t), tag="serving/control",
                        actor="control",
                        writes=("partition",),
                    )
        if self.halt_ms is not None:
            self.queue.schedule(
                self.halt_ms,
                lambda: self.halt(self.halt_ms),
                tag="serving/halt",
                actor="control",
                writes=("partition",),
            )

    def finish(self) -> ServingRunResult:
        """Close the monitor and attribution; build the run result."""
        # Close the monitor's final window (nothing arrives after the
        # drain, so every open window is decidable now).
        self._poll_monitor(self.queue.now + self.window)

        table = self.table
        if table is not None:
            for name in list(self.attr_cache):
                self._flush_attribution(name)
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
            servers={n: self.policy.server_of(n) for n in self.names},
            server_busy_ms={
                s: st.busy_ms for s, st in sorted(self.servers.items())
            },
            final_shares=self.policy.shares(),
            alerts=self.alerts,
        )


__all__ = ["ChipHandle"]
