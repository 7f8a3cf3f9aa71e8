#!/usr/bin/env python3
"""Bring your own network: quantize it, verify it bit-for-bit on the
functional MAICC path, then estimate its mapped performance.

The flow a downstream user follows for a custom model:

1. build a float graph (here: a small residual CNN);
2. post-training int8 quantization with batch-norm folding;
3. run it through the functional node-group simulator — every conv/FC
   executes with the CMem data layout and filter splitting — and check
   exact equality with the integer reference;
4. derive the mapped layers from the quantized graph and simulate
   latency/energy on the chip.

Run:  python examples/custom_network_inference.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import quantize_graph, simulate, simulate_quantized_graph
from repro.core import network_spec_of
from repro.nn.models import build_residual_cnn
from repro.nn.reference import quantization_error


def main() -> None:
    rng = np.random.default_rng(2023)

    # 1. Float model + calibration data.
    graph = build_residual_cnn(input_shape=(8, 8, 8))
    calibration = [rng.normal(size=(8, 8, 8)) for _ in range(4)]

    # 2. Quantize (int8, symmetric, BN folded).
    qgraph = quantize_graph(graph, calibration)
    err = quantization_error(graph, qgraph, calibration)
    print(f"quantization relative error vs float: {err:.4f}")

    # 3. Functional MAICC execution must equal the integer reference.
    x = rng.normal(size=(8, 8, 8))
    reference = qgraph.forward(x)
    simulated = simulate_quantized_graph(qgraph, x)
    mismatches = [
        name for name in reference
        if not np.array_equal(reference[name], simulated[name])
    ]
    if mismatches:
        raise SystemExit(f"functional MAICC execution: MISMATCH in {mismatches}")
    print("functional MAICC execution: EXACT MATCH")
    print(f"logits: {simulated[qgraph.output_name].tolist()}")

    # 4. Mapped-performance estimate for the conv/FC layers.
    result = simulate(network_spec_of(qgraph, "residual-cnn"))
    print(f"\nmapped onto MAICC ({result.plan.strategy} strategy):")
    print(f"  latency    : {result.latency_ms * 1000:.1f} us")
    print(f"  throughput : {result.throughput_samples_s:.0f} samples/s")
    print(f"  avg power  : {result.average_power_w:.2f} W")
    for run in result.runs:
        names = ", ".join(s.name for s in run.segment.layers)
        print(f"  segment [{names}]: {run.segment.total_nodes} cores")


if __name__ == "__main__":
    main()
