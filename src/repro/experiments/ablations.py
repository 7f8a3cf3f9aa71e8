"""Design-space ablations as first-class experiments.

``tests/experiments/test_ablations.py`` asserts these; the CLI renders
them.  Each sweeps one design choice DESIGN.md calls out: CMem slice
count, operand precision, the MAC primitive vs element-wise computing,
placement policy, and batch streaming.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import numpy as np

from repro.baselines.neural_cache import NeuralCacheModel
from repro.cmem.cmem import CMem
from repro.cmem.isa import MAC_C, cmem_op_cycles
from repro.core.node import table4_workload
from repro.core.perfmodel import PerformanceModel, TimingParams
from repro.core.traffic import simulate_segment_traffic
from repro.experiments.report import ExperimentResult
from repro.mapping.capacity import CapacityModel
from repro.mapping.placement import (
    random_placement,
    raster_placement,
    zigzag_placement,
)
from repro.mapping.segmentation import HeuristicStrategy
from repro.mapping.tiling import passes_required
from repro.nn.workloads import NetworkSpec, resnet18_spec
from repro.sim import SimConfig, simulate


def _tiled_layers(network: NetworkSpec, config: SimConfig) -> Dict[str, int]:
    """The layers the array runs in several passes, with their pass counts."""
    passes = {
        layer.name: passes_required(layer, config.capacity, config.array_size)
        for layer in network
    }
    return {name: p for name, p in passes.items() if p > 1}


def run_slices() -> ExperimentResult:
    """CMem slice count vs ResNet18 latency and per-node capacity."""
    result = ExperimentResult(
        experiment="ablation-slices",
        title="Ablation: CMem compute-slice count (paper design point: 7)",
        columns=["slices", "latency_ms", "filters_per_node", "passes"],
    )
    spec = table4_workload()
    network = resnet18_spec()
    tiled_notes = []
    for k in (3, 5, 7, 10, 14):
        config = SimConfig(
            params=TimingParams(slice_parallel_cmem=True),
            capacity=CapacityModel(compute_slices=k),
        )
        tiled = _tiled_layers(network, config)
        if tiled:
            tiled_notes.append(
                f"{k} slices: "
                + ", ".join(f"{name} {p}" for name, p in tiled.items())
            )
        result.add_row(
            slices=k,
            latency_ms=round(simulate(network, config=config).latency_ms, 3),
            filters_per_node=config.capacity.filters_per_node(spec),
            passes=max(tiled.values(), default=1),
        )
    result.notes.append(
        "passes = most sequential passes any layer needs on the 208-core "
        "array; tiled layers (passes): " + "; ".join(tiled_notes)
    )
    result.notes.append(
        "seven compute slices (the paper's design point) is the smallest "
        "geometry that maps ResNet18 single-pass"
    )
    return result


def run_precision() -> ExperimentResult:
    """Operand width: n^2 MAC cycles vs 64/n - 1 capacity."""
    result = ExperimentResult(
        experiment="ablation-precision",
        title="Ablation: operand precision (paper design point: int8)",
        columns=[
            "n_bits", "mac_cycles", "slots_per_slice", "resnet_latency_ms",
            "passes",
        ],
    )
    config = SimConfig()
    for n in (2, 4, 8, 16):
        net = NetworkSpec(
            name=f"resnet18_int{n}",
            layers=tuple(replace(s, n_bits=n) for s in resnet18_spec()),
        )
        result.add_row(
            n_bits=n,
            mac_cycles=cmem_op_cycles(MAC_C, n),
            slots_per_slice=config.capacity.vector_slots_per_slice(n),
            resnet_latency_ms=round(simulate(net, config=config).latency_ms, 3),
            passes=max(_tiled_layers(net, config).values(), default=1),
        )
    return result


def run_primitives() -> ExperimentResult:
    """MAC primitive vs element-wise + reduction on the Table 4 workload."""
    spec = table4_workload()
    cache = NeuralCacheModel().run(spec)

    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, 256)
    b = rng.integers(0, 256, 256)
    cmem = CMem()
    cmem.store_vector_transposed(1, 0, a, 8, signed=False)
    cmem.store_vector_transposed(1, 8, b, 8, signed=False)
    value = cmem.mac(1, 0, 8, 8, signed=False)
    assert value == int(np.dot(a, b))

    result = ExperimentResult(
        experiment="ablation-primitives",
        title="Ablation: MAC primitive vs element-wise + reduction",
        columns=["approach", "cycles_per_dot_product", "notes"],
    )
    ew_per_dot = cache.cycles // (49 * 5)
    result.add_row(
        approach="element-wise (Neural Cache)",
        cycles_per_dot_product=ew_per_dot,
        notes=f"reduction = {cache.reduction_fraction:.0%} of cycles",
    )
    result.add_row(
        approach="adder-tree MAC (MAICC)",
        cycles_per_dot_product=64,
        notes="n^2 cycles, scalar straight to a register",
    )
    return result


def run_placement() -> ExperimentResult:
    """Placement policy vs one iteration wave's NoC cost."""
    config = SimConfig()
    plan = HeuristicStrategy(config.array_size).plan(
        resnet18_spec(), PerformanceModel().layer_time_fn()
    )
    segment = plan.segments[1]
    region = config.chip.compute_region
    result = ExperimentResult(
        experiment="ablation-placement",
        title="Ablation: placement policy (Fig. 7(c)) — one iteration wave",
        columns=["policy", "flit_hops", "completion_cycles"],
    )
    for name, placement in (
        ("zig-zag", zigzag_placement(segment, region)),
        ("raster", raster_placement(segment, region)),
        ("random", random_placement(segment, region, seed=1)),
    ):
        traffic = simulate_segment_traffic(segment, placement, config)
        result.add_row(
            policy=name,
            flit_hops=traffic.flit_hops,
            completion_cycles=traffic.completion_cycles,
        )
    return result


def run_batch() -> ExperimentResult:
    """Batch streaming: throughput toward the steady-state pipeline rate."""
    net = resnet18_spec()
    result = ExperimentResult(
        experiment="ablation-batch",
        title="Ablation: batch streaming on ResNet18",
        columns=["batch", "total_ms", "samples_per_s", "samples_per_s_per_w"],
    )
    for b in (1, 2, 4, 8, 32):
        run = simulate(net, batch=b)
        result.add_row(
            batch=b,
            total_ms=round(run.latency_ms, 2),
            samples_per_s=round(run.throughput_samples_s, 1),
            samples_per_s_per_w=round(run.throughput_per_watt, 2),
        )
    return result
