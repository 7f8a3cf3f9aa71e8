#!/usr/bin/env python3
"""Quickstart: map ResNet18 onto the 210-core MAICC chip and report
latency, throughput, power, and the energy breakdown (Tables 6/7,
Fig. 10 of the paper).

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import resnet18_spec, simulate


def main() -> None:
    network = resnet18_spec()

    print(f"workload: {network.name}, {len(network)} mapped layers, "
          f"{network.total_macs / 1e9:.2f} GMACs\n")

    print(f"{'strategy':14s} {'latency':>10s} {'throughput':>12s} "
          f"{'power':>8s} {'samples/s/W':>12s}")
    for strategy in ("single-layer", "greedy", "heuristic"):
        result = simulate(network, strategy=strategy)
        print(
            f"{strategy:14s} {result.latency_ms:8.2f} ms "
            f"{result.throughput_samples_s:10.1f}/s "
            f"{result.average_power_w:6.2f} W "
            f"{result.throughput_per_watt:10.2f}"
        )

    best = simulate(network, strategy="heuristic")
    print("\nheuristic mapping (paper Table 6 shape):")
    for run in best.runs:
        layers = ", ".join(spec.name for spec in run.segment.layers)
        print(f"  segment [{layers}]: {run.cycles / 1e6:.3f} ms "
              f"on {run.segment.total_nodes} cores")

    print("\nenergy breakdown (paper Fig. 10: DRAM 71%, CMem 11%, NoC 11%):")
    for block, share in sorted(
        best.energy.fractions().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {block:6s} {share * 100:5.1f}%")


if __name__ == "__main__":
    main()
