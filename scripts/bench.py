#!/usr/bin/env python3
"""Host-time benchmark of the simulator, written to one ``BENCH.json``.

The document holds a ``meta`` block (python, numpy, machine, cpu_count)
and one section per entry of ``CASES``: ``macc`` (the vectorized
bit-plane MAC engine), ``telemetry`` (simulated cycle counts and
registry counters, deterministic), ``serving`` (the serving event loop,
request batching, and the calls elastic re-planning makes), ``backends``
(every ``repro.sim`` fidelity tier,
how the queueing tiers' call count grows with feature-map size, the
calls one more pass of a tiled layer adds, and the cycle tier's memory
peak),
``obs`` (the latency-attribution overhead), ``fleet`` (the multi-chip
fleet loop) and ``dse`` (the DSE smoke sweep, serial vs fork-pool).

The last five are gated.  Each gated row carries its ``budget_s``,
``budget_ratio``, ``budget_calls_per_pass``, ``budget_calls`` or
``budget_mb`` (from ``PARTITION_OP_BUDGET``, ``BACKEND_BUDGETS``,
``BACKEND_OP_BUDGET``, ``PASS_OP_BUDGET``, ``CYCLE_MEMORY_BUDGET_MB``,
``OBS_OVERHEAD_CALLS``, ``FLEET_BUDGETS``, ``FLEET_OP_BUDGET`` or
``DSE_BUDGETS``) and a ``within_budget`` flag;
the ``dse`` section also
records whether its serial and fork-pool JSON are ``identical_bytes``.
A row with either flag false is printed by its path, e.g.
``fleet/scales/1``, and the run exits 1.  ``--check`` runs only the
gated cases and writes nothing; the CI ``bench-budget`` job runs it, so
a regression such as a queueing tier slipping back to per-vector Python
dispatch fails the build.

Run:  python scripts/bench.py [--out BENCH.json]
      python scripts/bench.py --check
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import replace
from typing import Callable, NamedTuple

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from repro import telemetry
from repro.cmem.cmem import CMem
from repro.core.functional import FunctionalNodeGroup, bit_true_min_nodes
from repro.core.multi_dnn import MultiDNNScheduler
from repro.core.node import MAICCNode
from repro.dse import SWEEPS, run_sweep
from repro.fleet import FleetModelSpec, FleetSimulator, ModelProfile, OpenLoopTraffic
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, resnet18_spec, small_cnn_spec
from repro.serving import (
    ElasticPolicy,
    FixedServicePolicy,
    PoissonArrivals,
    ServiceModel,
    ServingSimulator,
    TenantSpec,
)
from repro.serving.scenarios import mixed_rate_overloaded_tenants
from repro.sim import SimConfig, simulate
from repro.sim.accounting import plan_network


def _time_per_call(fn, *, min_reps: int = 5, budget_s: float = 1.0) -> float:
    """Median-of-three timing; each sample amortizes over enough reps."""
    fn()  # warm caches / JIT-less numpy dispatch
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    reps = max(min_reps, int(budget_s / 3 / max(once, 1e-9)))
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return sorted(samples)[1]


def op_count(fn, *args) -> int:
    """Python and builtin calls that ``fn(*args)`` makes, counted by cProfile.

    Sums the call count of every profiler entry.  ``pstats`` would key
    the entries by ``(file, line, name)`` and keep one per label, and
    every dataclass-generated ``__init__`` shares the label
    ``('<string>', 2, '__init__')``, so its total would depend on which
    entry the profiler happened to list last.
    """
    profile = cProfile.Profile()
    profile.enable()
    fn(*args)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


#: The one-layer network of the serving cases.  FixedServicePolicy never
#: looks at it, so no host time goes to a chip model.
STUB_NET = NetworkSpec(
    name="stub", layers=(ConvLayerSpec(index=0, name="stub", h=1, w=1, c=1, m=1),)
)

#: Simulated window and batch size of the overloaded tenant pair.
OVERLOAD_MS = 2000.0
OVERLOAD_BATCH = 8


def overloaded_pair() -> tuple:
    """The overloaded two-tenant set of the batching and attribution cases.

    The tenants arrive faster than the servers drain one request at a
    time, and each declares the ``staging_ms`` share of its service time
    (the weight staging a batch against resident weights pays once).
    Returns the policy and a factory of fresh tenants.
    """
    policy = FixedServicePolicy({"a": 0.8, "b": 1.1}, staging_ms={"a": 0.6, "b": 0.8})

    def tenants() -> list:
        return [
            TenantSpec("a", STUB_NET, PoissonArrivals(2200, seed=31),
                       deadline_ms=50.0, queue_capacity=256),
            TenantSpec("b", STUB_NET, PoissonArrivals(1400, seed=32),
                       deadline_ms=50.0, queue_capacity=256),
        ]

    return policy, tenants


def resnet18_segment() -> tuple:
    """A bit-true group for ResNet18's conv1_x, and its ifmap.

    conv1_x (64 channels in and out, 3x3, stride 1) with the spatial
    extent cut to 6x6 so the group finishes in seconds.  The group
    publishes to the telemetry sink active when it is built.
    """
    spec = ConvLayerSpec(
        index=1, name="conv1_x[6x6]", h=6, w=6, c=64, m=64,
        r=3, s=3, stride=1, padding=1, n_bits=8,
    )
    rng = np.random.default_rng(3)
    weights = rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-1000, 1000, spec.m)
    ifmap = rng.integers(-128, 128, (spec.c, spec.h, spec.w))
    group = FunctionalNodeGroup(
        spec, weights, bias,
        num_computing=bit_true_min_nodes(spec, CapacityModel()), bit_true=True,
    )
    return group, ifmap


def bench_mac() -> dict:
    rng = np.random.default_rng(1)
    a = rng.integers(-128, 128, 256)
    b = rng.integers(-128, 128, 256)

    cmems = {}
    for fast in (False, True):
        cmem = CMem(fast_path=fast)
        cmem.store_vector_transposed(1, 0, a, 8, signed=True)
        cmem.store_vector_transposed(1, 8, b, 8, signed=True)
        cmems[fast] = cmem
    expected = int(np.dot(a, b))
    assert cmems[True].mac(1, 0, 8, 8) == expected
    assert cmems[False].mac(1, 0, 8, 8) == expected

    t_ref = _time_per_call(lambda: cmems[False].mac(1, 0, 8, 8))
    t_fast = _time_per_call(lambda: cmems[True].mac(1, 0, 8, 8))
    return {
        "workload": "256-wide int8 dot product (CMem.mac, slice 1)",
        "reference_us_per_mac": t_ref * 1e6,
        "fast_us_per_mac": t_fast * 1e6,
        "reference_macs_per_sec": 1.0 / t_ref,
        "fast_macs_per_sec": 1.0 / t_fast,
        "speedup": t_ref / t_fast,
    }


def bench_mac_many() -> dict:
    rng = np.random.default_rng(2)
    a = rng.integers(-128, 128, 256)
    filters = [rng.integers(-128, 128, 256) for _ in range(7)]

    cmem = CMem(fast_path=True)
    ref = CMem(fast_path=False)
    for target in (cmem, ref):
        target.store_vector_transposed(1, 0, a, 8, signed=True)
        for i, w in enumerate(filters):
            target.store_vector_transposed(1, 8 * (i + 1), w, 8, signed=True)
    rows = [8 * (i + 1) for i in range(7)]
    assert list(cmem.mac_many(1, 0, rows, 8)) == [int(np.dot(a, w)) for w in filters]

    t_many = _time_per_call(lambda: cmem.mac_many(1, 0, rows, 8)) / len(rows)
    t_ref = _time_per_call(lambda: ref.mac(1, 0, 8, 8))
    return {
        "workload": "7 stationary int8 filters per slice (CMem.mac_many)",
        "fast_us_per_mac": t_many * 1e6,
        "fast_macs_per_sec": 1.0 / t_many,
        "speedup_vs_reference_mac": t_ref / t_many,
    }


def bench_resnet18_segment() -> dict:
    group, ifmap = resnet18_segment()
    t0 = time.perf_counter()
    acc = group.run(ifmap)
    wall = time.perf_counter() - t0

    macs = group.stats.macs
    return {
        "workload": f"ResNet18 conv1_x bit-true segment (6x6 ifmap, {group.num_computing} nodes)",
        "wall_s": wall,
        "macs": int(macs),
        "macs_per_sec": macs / wall,
        "checksum": int(acc.sum()),
    }


def bench_telemetry() -> dict:
    """Telemetry snapshot: workload cycle counts + top-level counters.

    A reduced cycle-level node and the bit-true ResNet18 segment run
    under an active sink.  Everything here is simulation state, the same
    on every machine, so the snapshot is diffable along the trajectory.
    """
    sink = telemetry.Telemetry()
    with telemetry.use(sink):
        # Cycle-level: 2 filters of 3x3x64 on a 5x5x64 ifmap (a scaled-down
        # Table 4 shape that keeps the pipeline run under a second).
        spec = ConvLayerSpec(
            index=0, name="node[5x5x64]", h=5, w=5, c=64, m=2, r=3, s=3, stride=1, padding=0
        )
        rng = np.random.default_rng(5)
        weights = rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s))
        node = MAICCNode(spec, weights, rng.integers(-1000, 1000, spec.m))
        node_result = node.run(rng.integers(-128, 128, (spec.c, spec.h, spec.w)))

        group, ifmap = resnet18_segment()
        group.run(ifmap)

    return {
        "workloads": {
            "node_5x5x64": {
                "cycles": int(node_result.stats.cycles),
                "instructions": int(node_result.stats.instructions),
                "cmem_busy_cycles": int(node_result.cmem_busy_cycles),
            },
            "resnet18_segment": {
                "nodes": group.num_computing,
                "vectors_streamed": int(group.stats.vectors_streamed),
                "macs": int(group.stats.macs),
                "row_transfers": int(group.stats.row_transfers),
            },
        },
        "counters": sink.registry.as_dict()["counters"],
        "trace_events": len(sink.trace),
    }


def bench_serving() -> dict:
    """Throughput of the serving event loop itself (host wall-clock).

    Uses :class:`FixedServicePolicy` so zero time goes to the chip model —
    what's measured is the discrete-event loop: arrival generation,
    admission, dispatch, completion accounting.  The ambient telemetry
    sink must be the disabled :class:`NullSink` so the hot path pays only
    its one ``enabled`` read.
    """
    assert not telemetry.current().enabled, "bench_serving needs the disabled NullSink"

    def tenants():
        return [
            TenantSpec("a", STUB_NET, PoissonArrivals(900, seed=21), deadline_ms=4.0),
            TenantSpec("b", STUB_NET, PoissonArrivals(600, seed=22), deadline_ms=6.0,
                       queue_capacity=64),
            TenantSpec("c", STUB_NET, PoissonArrivals(300, seed=23), deadline_ms=9.0),
        ]

    policy = FixedServicePolicy({"a": 0.8, "b": 1.1, "c": 2.3})
    duration_ms = 2000.0

    def run():
        return ServingSimulator(policy).run(tenants(), duration_ms)

    result = run()
    requests = result.total_arrivals
    t = _time_per_call(run)
    return {
        "workload": (
            f"3-tenant Poisson serving loop, {duration_ms:g} ms sim window, "
            f"{requests} requests (FixedServicePolicy, NullSink)"
        ),
        "requests": requests,
        "wall_s_per_run": t,
        "requests_per_sec": requests / t,
        "sim_ms_per_wall_s": duration_ms / t,
        "completed": result.total_completed,
        "shed": result.total_shed,
    }


def bench_serving_batched() -> dict:
    """Request batching on the overloaded tenant pair (simulated throughput).

    ``ServingSimulator(batch_requests=8)`` dispatches up to 8 queued
    same-tenant requests per service slot, so a batch of ``k`` costs
    ``stage + k * (fixed - stage)`` instead of ``k * fixed``.  Both
    completion counts are simulation state (deterministic), so the
    throughput gain is diffable along the bench trajectory.
    """
    policy, tenants = overloaded_pair()
    unbatched = ServingSimulator(policy).run(tenants(), OVERLOAD_MS)
    batched = ServingSimulator(policy, batch_requests=OVERLOAD_BATCH).run(tenants(), OVERLOAD_MS)
    per_s = 1000.0 / OVERLOAD_MS
    return {
        "workload": (
            f"2-tenant overloaded Poisson loop, {OVERLOAD_MS:g} ms sim window "
            f"(FixedServicePolicy with staging_ms, batch_requests={OVERLOAD_BATCH})"
        ),
        "batch_requests": OVERLOAD_BATCH,
        "arrivals": unbatched.total_arrivals,
        "completed_unbatched": unbatched.total_completed,
        "completed_batched": batched.total_completed,
        "shed_unbatched": unbatched.total_shed,
        "shed_batched": batched.total_shed,
        "throughput_unbatched_req_s": unbatched.total_completed * per_s,
        "throughput_batched_req_s": batched.total_completed * per_s,
        "throughput_gain": batched.total_completed / unbatched.total_completed,
    }


#: Host work of elastic re-planning: the service-model misses of one
#: ``PARTITION_WINDOW_MS`` elastic window of the overloaded trio may make
#: at most this many calls (:func:`op_count`).  On Python 3.11 they made
#: 59,806 calls when every miss ran its tier, 24,573 when the tier runs
#: once per distinct plan (38 misses, 9 plans), and 35,474 with the
#: shared Eq. (1) memo but a tier run per miss; the budget sits between.
PARTITION_OP_BUDGET = 30_000
PARTITION_WINDOW_MS = 200.0


def bench_partition_op_count() -> dict:
    """Calls the elastic policy's re-planning makes in a short window.

    Runs the ``mixed-rate-overloaded`` trio for ``PARTITION_WINDOW_MS``
    under :class:`ElasticPolicy`, once on a fresh
    ``ServiceModel(MultiDNNScheduler())`` and once more on the same,
    now warm, service model, whose memo then answers every lookup.  The
    gated value is the difference of the two runs' counts: the tiling,
    planning, pre-flight and tier work of the misses, without the
    serving loop both runs share.
    """
    def run(service: ServiceModel):
        policy = ElasticPolicy(service, control_interval_ms=10.0)
        return ServingSimulator(policy).run(
            mixed_rate_overloaded_tenants(), PARTITION_WINDOW_MS
        )

    run(ServiceModel(MultiDNNScheduler()))  # warm lazy imports
    service = ServiceModel(MultiDNNScheduler())
    fresh = op_count(run, service)
    warm = op_count(run, service)
    return {
        "workload": (
            f"elastic serving of the overloaded trio, {PARTITION_WINDOW_MS:g} ms "
            "sim window: a fresh service model's calls minus a warm one's"
        ),
        "calls_fresh": fresh,
        "calls_warm": warm,
        "calls": fresh - warm,
        "budget_calls": PARTITION_OP_BUDGET,
        "within_budget": fresh - warm <= PARTITION_OP_BUDGET,
    }


#: Per-backend wall-clock budgets (seconds) of one warm ``simulate`` call
#: (first-call set-up is not billed).  Each budget is roughly 10x the
#: wall time measured on the reference machine with the event tier's
#: station scans (see docs/SIMULATORS.md), so CI noise never trips them
#: but a rewrite back to per-event Python dispatch (resnet18 event tier:
#: 2.54 s per event, ~0.05 s with the scans) blows through immediately.  The
#: resnet18 cycle budget is only ~7x its ~0.3 s so that a fall back to
#: int64 contractions off BLAS (~5 s) fails it.
BACKEND_BUDGETS: dict = {
    "resnet18": {"analytic": 0.10, "streaming": 0.50, "event": 0.60, "cycle": 2.0},
    "small_cnn": {"analytic": 0.05, "streaming": 0.05, "event": 0.10, "cycle": 1.50},
}


def bench_backends() -> dict:
    """Wall-clock cost and cycle totals of every repro.sim backend.

    ResNet18 (heuristic mapping) and the small CNN each run all four
    tiers.  Cycle totals and ratios are simulation state; each wall time
    is a warm call (:func:`_time_per_call`) and carries its ``budget_s``
    from ``BACKEND_BUDGETS``.
    """
    tiers = ("analytic", "streaming", "event", "cycle")
    out: dict = {}
    for name, network in (("resnet18", resnet18_spec()), ("small_cnn", small_cnn_spec())):
        rows = {}
        reference = None
        for backend in tiers:
            report = simulate(network, backend=backend)
            wall = _time_per_call(
                lambda: simulate(network, backend=backend), min_reps=1, budget_s=0.5
            )
            if backend == "streaming":
                reference = report.total_cycles
            rows[backend] = {
                "total_cycles": report.total_cycles,
                "latency_ms": report.latency_ms,
                "wall_s": wall,
            }
        for backend, row in rows.items():
            row["ratio_vs_streaming"] = row["total_cycles"] / reference
            budget = BACKEND_BUDGETS.get(name, {}).get(backend)
            if budget is not None:
                row["budget_s"] = budget
                row["within_budget"] = row["wall_s"] <= budget
        out[name] = rows
    out["op_count"] = bench_backend_op_count()
    out["pass_op_count"] = bench_pass_op_count()
    out["cycle_memory"] = bench_cycle_memory()
    return out


#: Host work of a queueing tier as feature maps grow: simulating
#: resnet18 at full height and width may make at most 10% more calls
#: (:func:`op_count`) than at half.  The count is of Python and builtin
#: calls, NumPy's included (a queued station scan makes a few per busy
#: run), so code that calls something per vector scales it with the
#: vector count, 4x from half to full size.  A loop that makes no call
#: per vector does not show here, only in wall clock.
BACKEND_OP_BUDGET = 1.10
BACKEND_OP_TIERS = ("streaming", "event")


def resnet18_halved() -> NetworkSpec:
    """ResNet18's mapped layers with height and width halved."""
    base = resnet18_spec()
    layers = tuple(
        replace(spec, h=math.ceil(spec.h / 2), w=math.ceil(spec.w / 2))
        for spec in base.layers
    )
    return NetworkSpec(name=f"{base.name}_hw2", layers=layers)


def bench_backend_op_count() -> dict:
    """Calls per ``simulate`` of the queueing tiers, full size over half.

    Each size is planned once, outside the count, so only the tier's own
    work (plus tiling and the preflight gate) is counted.  Each call is
    made once before it is counted, so the preflight gate's memo is warm
    whichever case ran first.  The gated value is the larger of the two
    tiers' ratios; unlike wall clock, it repeats exactly.
    """
    cfg = SimConfig()
    sizes = {"full": resnet18_spec(), "half": resnet18_halved()}
    plans = {
        size: plan_network(net, cfg.strategy, cfg) for size, net in sizes.items()
    }

    def count(tier: str, size: str) -> int:
        def run():
            return simulate(sizes[size], backend=tier, plan=plans[size])

        run()
        return op_count(run)

    counts = {
        tier: {size: count(tier, size) for size in sizes} for tier in BACKEND_OP_TIERS
    }
    ratios = {tier: c["full"] / c["half"] for tier, c in counts.items()}
    return {
        "workload": "resnet18 simulate() with a given plan, full vs half height and width",
        "calls": counts,
        "ratios": ratios,
        "budget_ratio": BACKEND_OP_BUDGET,
        "within_budget": max(ratios.values()) <= BACKEND_OP_BUDGET,
    }


#: Host work one more pass of a known shape may add to planning and
#: simulating a tiled network: at most this many calls (:func:`op_count`)
#: per extra pass, on each of ``PASS_OP_TIERS``.  Mapping and accounting
#: each distinct layer shape once per run took it from 440 calls a pass
#: to 203 on a 2-vCPU x86_64 host; re-planning and re-timing every pass
#: again fails the gate.
PASS_OP_BUDGET = 300
PASS_OP_TIERS = ("analytic", "event")
#: FC output channels of the tiled layer at 20 and at 40 passes.
PASS_OP_M = {20: 2048, 40: 4096}


def tiled_fc(m: int) -> NetworkSpec:
    """A 14x14 conv layer of 256 filters, then an FC layer over its
    25088 values with ``m`` outputs, which runs in passes on 208 cores."""
    return NetworkSpec(
        name=f"tiled_fc{m}",
        layers=(
            ConvLayerSpec(1, "conv", h=14, w=14, c=256, m=256),
            ConvLayerSpec(
                2, "fc", h=1, w=1, c=25088, m=m, r=1, s=1, padding=0, kind="linear"
            ),
        ),
    )


def bench_pass_op_count() -> dict:
    """Calls that one more pass of a known shape adds to ``simulate``.

    Plans and simulates :func:`tiled_fc` at 20 and 40 passes on each
    tier of ``PASS_OP_TIERS``, each call once before it is counted, and
    gates the larger tier's ``(calls_40 - calls_20) / 20``.
    """
    counts: dict = {}
    for tier in PASS_OP_TIERS:
        counts[tier] = {}
        for passes, m in PASS_OP_M.items():
            network = tiled_fc(m)

            def run():
                return simulate(network, backend=tier)

            run()
            counts[tier][passes] = op_count(run)
    few, many = PASS_OP_M
    per_pass = {
        tier: (c[many] - c[few]) / (many - few) for tier, c in counts.items()
    }
    return {
        "workload": "plan and simulate a conv layer and an FC layer of 20 vs 40 passes",
        "calls": counts,
        "calls_per_pass": per_pass,
        "budget_calls_per_pass": PASS_OP_BUDGET,
        "within_budget": max(per_pass.values()) <= PASS_OP_BUDGET,
    }


#: Host memory of the ``cycle`` tier: the ``tracemalloc`` peak (MiB) of
#: one warm full-size resnet18 run.  With every weight and ifmap value
#: drawn, stored and converted as int64 it read
#: ``CYCLE_INT64_PEAK_MB``; held at their quantized width (int8) from
#: draw to BLAS, 22.2 MiB on Python 3.11.  The budget sits between the
#: two, so widening the operands again fails the gate.  Unlike wall
#: clock, the peak repeats to within a few KiB from run to run.
CYCLE_MEMORY_BUDGET_MB = 29.0
CYCLE_INT64_PEAK_MB = 35.8


def bench_cycle_memory() -> dict:
    """``tracemalloc`` peak of one warm ``simulate(resnet18_spec(),
    backend="cycle")``, gated at ``CYCLE_MEMORY_BUDGET_MB``."""
    network = resnet18_spec()
    simulate(network, backend="cycle")
    tracemalloc.start()
    try:
        simulate(network, backend="cycle")
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return {
        "workload": "one warm full-size resnet18 simulate() on the cycle tier",
        "peak_mb": peak_mb,
        "int64_operands_peak_mb": CYCLE_INT64_PEAK_MB,
        "budget_mb": CYCLE_MEMORY_BUDGET_MB,
        "within_budget": peak_mb <= CYCLE_MEMORY_BUDGET_MB,
    }


#: Attribution-overhead ceiling: the NullSink serving loop with
#: attribution on may make at most this many operations more than the
#: same loop with it off (see :func:`bench_obs`).  The overhead measured
#: 283 calls on Python 3.11 over the loop's 3,037 batch dispatches, so
#: one extra call per dispatch (283 + 3,037 = 3,320) fails the gate;
#: the rest of the ceiling is headroom for how Python 3.10-3.12 count
#: calls.
OBS_OVERHEAD_CALLS = 1000


def bench_obs() -> dict:
    """Latency-attribution overhead on the serving fast path.

    The overloaded tenant pair, batched, against the disabled NullSink,
    with per-request attribution off and on.  The gated quantity is the
    difference of the two runs' operation counts (:func:`op_count`),
    which repeats exactly from run to run on one Python and NumPy build.
    The attribution fast path costs O(tenants x batch sizes + resizes)
    table calls, never O(requests), so per-request work sneaking back in
    shows up as a call-count jump that no scheduler noise can hide.  A
    difference, unlike the ratio (recorded as advisory), stays put when
    the serving loop itself gets cheaper.  Wall clock is recorded as an
    advisory figure too (min over interleaved gc-fenced reps): a shared
    CI machine cannot resolve a 2% wall-clock budget.
    """
    assert not telemetry.current().enabled, "bench_obs needs the disabled NullSink"
    policy, tenants = overloaded_pair()

    def run(attribution: bool):
        return ServingSimulator(
            policy, batch_requests=OVERLOAD_BATCH, attribution=attribution
        ).run(tenants(), OVERLOAD_MS)

    baseline = run(False)
    attributed = run(True)

    calls_off = op_count(run, False)
    calls_on = op_count(run, True)
    overhead = calls_on - calls_off

    def timed(attribution: bool) -> float:
        # A gc fence before each rep so a collection triggered by one
        # arm's allocations is never billed to the other.
        gc.collect()
        t0 = time.perf_counter()
        run(attribution)
        return time.perf_counter() - t0

    # Advisory wall clock: interleaved A/B with the arm order
    # alternating per rep so drift lands on both sides, min-of-reps as
    # the noise-robust estimator.
    reps = 8
    off_times: list = []
    on_times: list = []
    for i in range(reps):
        if i % 2 == 0:
            off_times.append(timed(False))
            on_times.append(timed(True))
        else:
            on_times.append(timed(True))
            off_times.append(timed(False))
    return {
        "workload": (
            f"2-tenant overloaded Poisson loop, {OVERLOAD_MS:g} ms sim window, batch_requests="
            f"{OVERLOAD_BATCH}, NullSink; attribution off vs on, call-count difference gated + {reps} "
            "interleaved gc-fenced wall-clock reps (advisory)"
        ),
        "requests": baseline.total_arrivals,
        "completed": attributed.total_completed,
        "calls_off": calls_off,
        "calls_on": calls_on,
        "overhead_calls": overhead,
        "budget_calls": OBS_OVERHEAD_CALLS,
        "within_budget": overhead <= OBS_OVERHEAD_CALLS,
        "overhead_ratio": calls_on / calls_off,
        "wall_s_off": min(off_times),
        "wall_s_on": min(on_times),
        "wall_ratio": min(on_times) / min(off_times),
        "attribution_phases": {
            name: len(report.attribution)
            for name, report in sorted(attributed.reports.items())
        },
    }


#: Per-fleet-size wall-clock budgets (seconds per run).  Each is roughly
#: 10x the wall time measured on the reference machine (see
#: docs/SIMULATORS.md), so CI noise never trips them but a regression
#: that drags the routing loop or the per-chip event engine back to
#: per-request Python overhead blows through immediately.
FLEET_BUDGETS: dict = {1: 0.20, 4: 0.80, 16: 3.50}

#: Per-request cost ceiling of the fleet path as it grows: a generated
#: request may make at most 10% more calls (:func:`op_count`) at 16
#: chips than at 4.  The base is 4 chips, not 1, because with a single
#: candidate p2c skips its two RNG draws.
FLEET_OP_BUDGET = 1.10
FLEET_OP_CHIPS = (4, 16)


def bench_fleet() -> dict:
    """Throughput of the multi-chip fleet loop at N = 1 / 4 / 16 chips.

    Two scripted models whose offered load scales linearly with the chip
    count (one replica of each per chip), routed by power-of-two-choices
    and simulated serially — what's measured is the whole fleet path:
    traffic generation, cluster routing, per-chip event loops, and the
    fleet rollup.  Request counts are simulation state (deterministic);
    the wall-clock rows carry their ``budget_s`` from ``FLEET_BUDGETS``.
    Each scale also records its operation count per generated request,
    and the ``op_count`` row gates how that grows from 4 to 16 chips
    (``FLEET_OP_BUDGET``); unlike wall clock, it repeats exactly.
    """
    def models(chips: int) -> list:
        return [
            FleetModelSpec(
                name=name,
                profile=ModelProfile(
                    name, service_ms, cores=cores, staging_ms=staging_ms, restage_ms=restage_ms
                ),
                traffic=OpenLoopTraffic(rate_hz=rate_hz * chips),
                deadline_ms=deadline_ms,
                queue_capacity=256,
                replicas=chips,
            )
            for name, service_ms, cores, staging_ms, restage_ms, rate_hz, deadline_ms in (
                ("vision", 0.8, 64, 0.2, 4.0, 900.0, 10.0),
                ("speech", 1.1, 96, 0.3, 6.0, 400.0, 15.0),
            )
        ]

    duration_ms = 1000.0
    scales = {}
    for chips in sorted(FLEET_BUDGETS):
        spec = models(chips)

        def run():
            return FleetSimulator(
                spec, chips, balancer="p2c", seed=0, scenario="bench-fleet"
            ).run(duration_ms)

        result = run()
        t = _time_per_call(run, min_reps=2, budget_s=0.5)
        scales[str(chips)] = {
            "chips": chips,
            "requests": result.total_generated,
            "completed": result.total_completed,
            "shed": result.total_shed,
            "calls_per_request": op_count(run) / result.total_generated,
            "wall_s_per_run": t,
            "requests_per_sec": result.total_generated / t,
            "sim_ms_per_wall_s": duration_ms / t,
            "budget_s": FLEET_BUDGETS[chips],
            "within_budget": t <= FLEET_BUDGETS[chips],
        }
    base, top = (scales[str(c)]["calls_per_request"] for c in FLEET_OP_CHIPS)
    ratio = top / base
    return {
        "workload": (
            f"2-model fleet loop, {duration_ms:g} ms sim window, offered "
            "load and replica count scaling with chips (p2c balancer, "
            "serial chip execution)"
        ),
        "scales": scales,
        "op_count": {
            "chips": list(FLEET_OP_CHIPS),
            "ratio": ratio,
            "budget_ratio": FLEET_OP_BUDGET,
            "within_budget": ratio <= FLEET_OP_BUDGET,
        },
    }


#: Per-worker-count wall-clock budgets (seconds per smoke-sweep run).
#: Roughly 10x the reference-machine wall time (serial ~0.05 s, fork-pool
#: ~0.09 s); the workers=4 budget is wider because the fork-pool run
#: pays process startup on top of the sweep itself.
DSE_BUDGETS: dict = {0: 1.0, 4: 2.5}


def bench_dse() -> dict:
    """Throughput of the DSE engine on the 16-point smoke sweep.

    Times ``repro.dse.run_sweep`` serial (workers=0) and on the fork-pool
    executor (workers=4) in points per second.  The two runs'
    consolidated JSON must be byte-identical, the executor's core
    guarantee (see docs/DSE.md); ``identical_bytes`` records it and gates
    alongside the per-mode wall-clock budgets.
    """
    spec = SWEEPS["smoke"]
    points = spec.size
    artifacts = {}
    rows = {}
    for workers in sorted(DSE_BUDGETS):
        artifacts[workers] = run_sweep(spec, workers=workers).to_json()

        def run(workers: int = workers):
            run_sweep(spec, workers=workers)

        t = _time_per_call(run, min_reps=2, budget_s=0.5)
        rows[str(workers)] = {
            "workers": workers,
            "executor": "serial" if workers == 0 else "fork-pool",
            "wall_s_per_run": t,
            "points_per_sec": points / t,
            "budget_s": DSE_BUDGETS[workers],
            "within_budget": t <= DSE_BUDGETS[workers],
        }
    return {
        "workload": (
            f"{points}-point smoke sweep (small_cnn, analytic tier), "
            "serial vs fork-pool executor (repro.utils.parallel)"
        ),
        "sweep": spec.name,
        "points": points,
        "identical_bytes": len(set(artifacts.values())) == 1,
        "scales": rows,
    }


class Case(NamedTuple):
    """One section of ``BENCH.json``.

    ``run()`` returns the section; ``--check`` runs it when ``check``.
    """

    run: Callable[[], dict]
    check: bool


CASES: dict = {
    "macc": Case(lambda: {
        "mac": bench_mac(),
        "mac_many": bench_mac_many(),
        "resnet18_segment": bench_resnet18_segment(),
    }, check=False),
    "telemetry": Case(bench_telemetry, check=False),
    "serving": Case(lambda: {
        "serving_loop": bench_serving(),
        "serving_batched": bench_serving_batched(),
        "partition_op_count": bench_partition_op_count(),
    }, check=True),
    "backends": Case(bench_backends, check=True),
    "obs": Case(lambda: {"attribution": bench_obs()}, check=True),
    "fleet": Case(bench_fleet, check=True),
    "dse": Case(bench_dse, check=True),
}

#: Row flags that fail the run when false.
GATES = ("within_budget", "identical_bytes")


def failures(node, path: str = "") -> list:
    """Paths of the rows under ``node`` with a gate flag that is false."""
    if not isinstance(node, dict):
        return []
    found = [path] if any(node.get(flag) is False for flag in GATES) else []
    for key, value in node.items():
        found += failures(value, f"{path}/{key}" if path else str(key))
    return found


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH.json"))
    parser.add_argument(
        "--check", action="store_true", help="run only the gated cases and write no JSON"
    )
    args = parser.parse_args()

    doc: dict = {"meta": {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpu_count": os.cpu_count(),
    }}
    for name, case in CASES.items():
        if args.check and not case.check:
            continue
        t0 = time.perf_counter()
        doc[name] = case.run()
        print(f"{name}: {time.perf_counter() - t0:.1f} s")

    if not args.check:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {os.path.abspath(args.out)}")

    failed = failures(doc)
    if failed:
        sys.exit("\n".join(f"FAIL {path}" for path in failed))  # exit status 1
    print("every gated row within budget")


if __name__ == "__main__":
    main()
