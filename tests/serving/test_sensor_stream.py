"""Arrival-driven multi-DNN serving of periodic sensor streams.

The paper's autonomous-driving scenario (Sec. 1): cameras, radars and
LiDARs produce frames at different rates that feed different networks at
once.  Each stream is a tenant with :class:`PeriodicArrivals`, served
FIFO by :class:`ServingSimulator` under a spatial (static-partition) or
time-shared policy, and checked against the original inline serving
loop, kept here as a differential oracle.
"""

import math
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.core.multi_dnn import MultiDNNScheduler
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.serving import PeriodicArrivals, ServingSimulator, TenantSpec
from repro.serving.scenarios import build_policy
from repro.sim import simulate
from repro.utils.events import EventQueue

#: The oracle's policy names -> the serving policy names.
POLICIES = {"spatial": "static", "time-shared": "time-shared"}


def net(name, m=32, h=14, layers=2):
    specs = tuple(
        ConvLayerSpec(i + 1, f"{name}{i}", h=h, w=h, c=64, m=m)
        for i in range(layers)
    )
    return NetworkSpec(name=name, layers=specs)


def stream(network, period_ms, deadline_ms=math.inf):
    return TenantSpec(
        network.name, network, PeriodicArrivals(period_ms),
        deadline_ms=deadline_ms,
    )


def driving_streams(deadline_ms=math.inf):
    # Rates chosen near chip saturation: each stream fits comfortably in
    # its spatial partition, but their combined demand oversubscribes a
    # single time-shared array — the regime the MIMD argument targets.
    return [
        stream(net("camera", m=64, h=28), 1.2, deadline_ms),
        stream(net("lidar", m=32, h=14), 0.5, deadline_ms),
        stream(small_cnn_spec(), 0.4, deadline_ms),
    ]


@pytest.fixture(scope="module")
def streams():
    return driving_streams()


@pytest.fixture(scope="module")
def scheduler():
    return MultiDNNScheduler()


def serve(scheduler, streams, duration_ms, policy="spatial"):
    serving_policy = build_policy(POLICIES[policy], scheduler)
    return ServingSimulator(
        serving_policy, discipline="fifo", collect_timelines=True
    ).run(streams, duration_ms)


def latencies(report):
    """Each completed frame's latency, in completion order."""
    return [timeline.end_to_end for timeline in report.timelines]


def worst_mean_latency_ms(result):
    return max(r.mean_latency_ms for r in result.reports.values())


class TestServing:
    def test_all_frames_served_under_spatial(self, scheduler, streams):
        result = serve(scheduler, streams, 100)
        for tenant in streams:
            report = result.reports[tenant.name]
            assert report.completed >= report.arrivals - 1  # last may overrun

    def test_latency_includes_queueing(self, scheduler, streams):
        result = serve(scheduler, streams, 100)
        for report in result.reports.values():
            assert report.mean_latency_ms > 0
            assert report.max_latency_ms >= report.mean_latency_ms

    def test_spatial_beats_time_shared(self, scheduler, streams):
        spatial = serve(scheduler, streams, 100, "spatial")
        shared = serve(scheduler, streams, 100, "time-shared")
        assert worst_mean_latency_ms(spatial) < worst_mean_latency_ms(shared)
        assert spatial.total_completed >= shared.total_completed

    def test_deadline_accounting(self, scheduler):
        # Misses against an impossible deadline = all frames; against a
        # generous one = none.
        tight = serve(scheduler, driving_streams(0.0001), 100)
        camera = tight.reports["camera"]
        assert camera.deadline_misses == camera.completed
        loose = serve(scheduler, driving_streams(1e9), 100)
        assert loose.reports["camera"].deadline_misses == 0

    def test_unknown_policy(self, scheduler):
        with pytest.raises(SimulationError):
            build_policy("magic", scheduler)

    def test_rates(self):
        assert PeriodicArrivals(40.0).rate_hz == pytest.approx(25.0)


@dataclass
class LegacyReport:
    frames: int = 0
    completed: int = 0
    latencies_ms: List[float] = field(default_factory=list)


def legacy_run(scheduler, streams, duration_ms, policy):
    """The original inline serving loop, replicated verbatim.

    Before the :mod:`repro.serving` subsystem, the sensor-stream serving
    loop tracked one ``server_free`` float per server and folded each
    arrival inline: ``start = max(t, free); done = start + service``.  The
    queue-based simulator must reproduce those floats *bit for bit* —
    same arithmetic, same operation order — which this differential
    oracle pins.
    """
    if policy == "spatial":
        run = scheduler.run([s.network for s in streams])
        service = {
            s.name: model_run.latency_ms
            for s, model_run in zip(streams, run.runs)
        }
        servers = {s.name: s.name for s in streams}
    else:
        service = {s.name: simulate(s.network).latency_ms for s in streams}
        servers = {s.name: "chip" for s in streams}

    queue = EventQueue()
    server_free = {}
    reports = {s.name: LegacyReport() for s in streams}

    def arrive(stream, t):
        report = reports[stream.name]
        report.frames += 1
        server = servers[stream.name]
        start = max(t, server_free.get(server, 0.0))
        done = start + service[stream.name]
        server_free[server] = done
        if done <= duration_ms:
            report.completed += 1
            report.latencies_ms.append(done - t)
        next_t = t + stream.arrivals.period_ms
        if next_t < duration_ms:
            queue.schedule(next_t, lambda: arrive(stream, next_t))

    for s in streams:
        queue.schedule(0.0, lambda s=s: arrive(s, 0.0))
    queue.run()
    return reports


class TestDifferentialAgainstLegacyLoop:
    """The serving-backed paths are bit-identical to the old inline loop."""

    @pytest.mark.parametrize("policy", ["spatial", "time-shared"])
    def test_latencies_bit_identical(self, scheduler, streams, policy):
        new = serve(scheduler, streams, 100, policy)
        old = legacy_run(scheduler, streams, 100, policy)
        assert set(new.reports) == set(old)
        for label, old_report in old.items():
            new_report = new.reports[label]
            assert new_report.arrivals == old_report.frames
            assert new_report.completed == old_report.completed
            # Exact float equality, not approx: the serving loop must not
            # perturb a single ULP of the old arithmetic.
            assert latencies(new_report) == old_report.latencies_ms

    def test_awkward_periods_and_ties(self, scheduler):
        # Colliding arrival times (4.2 has no exact binary representation;
        # 0.7 vs 1.4 collide every other frame) exercise the equal-time
        # ordering, where bit-identity is easiest to lose.
        streams = [
            stream(net("x", m=32, h=14), 0.7),
            stream(net("y", m=32, h=14, layers=1), 1.4),
            stream(small_cnn_spec(), 4.2),
        ]
        for policy in ("spatial", "time-shared"):
            new = serve(scheduler, streams, 50, policy)
            old = legacy_run(scheduler, streams, 50, policy)
            for label, old_report in old.items():
                assert latencies(new.reports[label]) == old_report.latencies_ms
