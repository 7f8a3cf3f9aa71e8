#!/usr/bin/env python3
"""Workload zoo: how different model families behave on MAICC.

Sweeps the built-in workloads — ResNet18 (the paper's benchmark), VGG-11
(FC-heavy: triggers multi-pass weight tiling), an MLP, an LSTM cell, and
a Transformer encoder block — through the chip simulator, at batch 1 and
batch 16, and prints where each one's time goes.

Run:  python examples/workload_zoo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import simulate
from repro.nn.workloads import (
    lstm_cell_spec,
    mlp_spec,
    resnet18_spec,
    transformer_block_spec,
    vgg11_spec,
)


def main() -> None:
    workloads = [
        resnet18_spec(),
        vgg11_spec(),
        mlp_spec(),
        lstm_cell_spec(),
        transformer_block_spec(),
    ]

    print(f"{'workload':18s} {'GMACs':>7s} {'weights':>9s} "
          f"{'latency':>10s} {'batch16/s':>10s} {'s/s/W':>7s} {'note'}")
    for net in workloads:
        weights_mb = sum(s.weight_count for s in net) / 1e6
        single = simulate(net)
        batched = simulate(net, batch=16)
        tiled = any("@" in s.name for s in single.network)
        load_share = sum(r.filter_load_cycles for r in single.runs) / single.total_cycles
        note = []
        if tiled:
            note.append("multi-pass tiled")
        if load_share > 0.3:
            note.append(f"weight-load {load_share:.0%} of time")
        print(
            f"{net.name:18s} {net.total_macs / 1e9:7.2f} {weights_mb:7.1f}MB "
            f"{single.latency_ms:8.3f}ms {batched.throughput_samples_s:9.1f}  "
            f"{single.throughput_per_watt:6.2f}  {', '.join(note)}"
        )

    print("\ntakeaways:")
    print("  - conv nets stream weight-stationary and hit the paper's rates;")
    print("  - VGG's giant FCs exceed the 2.6M resident weight slots, fall")
    print("    back to multi-pass tiling, and become filter-load-bound;")
    print("  - single-token LSTM/Transformer steps finish in microseconds —")
    print("    the array is latency-bound, so batching or multi-model")
    print("    co-location (see autonomous_driving_multi_dnn.py) fills it.")


if __name__ == "__main__":
    main()
