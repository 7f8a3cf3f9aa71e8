#!/usr/bin/env python3
"""Multi-DNN parallel inference: the paper's autonomous-driving scenario.

The introduction motivates MAICC with perception stacks where camera,
LiDAR, and planning networks of different shapes run *simultaneously*.
This example spatially partitions the 208-core array among three such
networks (the MIMD capability of Sec. 8) and compares against
time-sharing the whole array.

Run:  python examples/autonomous_driving_multi_dnn.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MultiDNNScheduler
from repro.nn.workloads import ConvLayerSpec, NetworkSpec
from repro.serving import PeriodicArrivals, ServingSimulator, TenantSpec
from repro.serving.scenarios import build_policy


def camera_perception() -> NetworkSpec:
    """A mid-size detection backbone on 56x56 features."""
    layers = (
        ConvLayerSpec(1, "cam_conv1", h=56, w=56, c=64, m=64),
        ConvLayerSpec(2, "cam_conv2", h=56, w=56, c=64, m=64),
        ConvLayerSpec(3, "cam_conv3", h=56, w=56, c=64, m=128, stride=2),
        ConvLayerSpec(4, "cam_conv4", h=28, w=28, c=128, m=128),
        ConvLayerSpec(5, "cam_head", h=28, w=28, c=128, m=64, r=1, s=1, padding=0),
    )
    return NetworkSpec(name="camera-perception", layers=layers)


def lidar_segmentation() -> NetworkSpec:
    """A smaller voxel network on 28x28 pillars."""
    layers = (
        ConvLayerSpec(1, "lidar_conv1", h=28, w=28, c=64, m=64),
        ConvLayerSpec(2, "lidar_conv2", h=28, w=28, c=64, m=128),
        ConvLayerSpec(3, "lidar_head", h=14, w=14, c=128, m=64, stride=1),
    )
    return NetworkSpec(name="lidar-segmentation", layers=layers)


def planner() -> NetworkSpec:
    """A light decision network on pooled features."""
    layers = (
        ConvLayerSpec(1, "plan_conv", h=14, w=14, c=128, m=128),
        ConvLayerSpec(2, "plan_fc", h=1, w=1, c=128, m=256, r=1, s=1,
                      padding=0, kind="linear"),
    )
    return NetworkSpec(name="planner", layers=layers)


def serve_streams(scheduler: MultiDNNScheduler) -> None:
    """Arrival-driven serving: frames at sensor rates, spatial vs shared."""
    streams = [
        (camera_perception(), 4.0),   # 250 fps camera rig
        (lidar_segmentation(), 2.0),  # high-rate LiDAR
        (planner(), 1.0),             # 1 kHz control loop
    ]
    tenants = [
        TenantSpec(net.name, net, PeriodicArrivals(period_ms))
        for net, period_ms in streams
    ]
    print("\nserving sensor streams for 200 ms "
          "(latency = queueing + inference):")
    for policy in ("static", "time-shared"):
        simulator = ServingSimulator(
            build_policy(policy, scheduler), discipline="fifo"
        )
        result = simulator.run(tenants, duration_ms=200)
        print(f"  policy: {policy}")
        for tenant in tenants:
            report = result.reports[tenant.name]
            print(f"    {tenant.name:20s} {report.completed:4d} frames, "
                  f"mean {report.mean_latency_ms:7.3f} ms, "
                  f"max {report.max_latency_ms:7.3f} ms")


def main() -> None:
    scheduler = MultiDNNScheduler()
    networks = [camera_perception(), lidar_segmentation(), planner()]

    shares = scheduler.partition(networks)
    print("spatial partition of the 208-core array:")
    for net, share in zip(networks, shares):
        print(f"  {net.name:20s} {share:4d} cores "
              f"({net.total_macs / 1e6:7.1f} MMACs)")

    result = scheduler.run(networks)
    print("\nconcurrent execution (one inference each):")
    for run in result.runs:
        print(f"  {run.network.name:20s} {run.latency_ms:7.3f} ms "
              f"-> {run.throughput:8.1f} samples/s sustained")

    print(f"\nmakespan, spatial partitions : {result.parallel_latency_ms:7.3f} ms")
    print(f"makespan, time-shared array  : {result.time_shared_latency_ms:7.3f} ms")
    print(f"speedup                      : {result.speedup_vs_time_shared:6.2f}x")
    print(f"aggregate throughput         : {result.aggregate_throughput:8.1f} samples/s "
          f"(time-shared: {result.time_shared_throughput:.1f})")

    serve_streams(scheduler)


if __name__ == "__main__":
    main()
