"""MAICC reproduction: a lightweight many-core with in-cache computing.

A full-system Python reproduction of *MAICC: A Lightweight Many-core
Architecture with In-Cache Computing for Multi-DNN Parallel Inference*
(Fan et al., MICRO 2023): bit-true computing-memory (CMem) arrays, a
cycle-level RV32IMA pipeline with the CMem ISA extension, mesh NoC and
DRAM models, an int8 DNN substrate, the layer segmentation / mapping
execution framework, and drivers regenerating every table and figure of
the paper's evaluation.

Quickstart::

    from repro import resnet18_spec, simulate
    result = simulate(resnet18_spec())
    print(result.latency_ms, result.throughput_per_watt)
"""

from repro.cmem import CMem

# repro.core must initialize before repro.analysis: the system-scope
# analyzers (repro.analysis.plan / .system) import repro.sim, whose
# config/accounting modules import repro.core — loading analysis first
# would re-enter repro.sim.config mid-initialization.
from repro.core import (
    ChipConfig,
    MAICCNode,
    MultiDNNScheduler,
    PerformanceModel,
    SegmentSimulator,
    TimingParams,
    simulate_quantized_graph,
    static_schedule,
    table4_workload,
)
from repro.sim import SimConfig, simulate
from repro.analysis import schedule_kernel, verify_program
from repro.energy import ChipConstants, area_breakdown
from repro.mapping import (
    CapacityModel,
    GreedyStrategy,
    HeuristicStrategy,
    SingleLayerStrategy,
)
from repro.nn import (
    quantize_graph,
    resnet18_spec,
    run_quantized,
)
from repro.riscv import Core, Pipeline, PipelineConfig, assemble
from repro.telemetry import NullSink, Telemetry

__version__ = "1.0.0"

__all__ = [
    "CMem",
    "ChipConfig",
    "MAICCNode",
    "MultiDNNScheduler",
    "PerformanceModel",
    "SegmentSimulator",
    "SimConfig",
    "TimingParams",
    "simulate",
    "simulate_quantized_graph",
    "static_schedule",
    "table4_workload",
    "ChipConstants",
    "area_breakdown",
    "CapacityModel",
    "GreedyStrategy",
    "HeuristicStrategy",
    "SingleLayerStrategy",
    "quantize_graph",
    "resnet18_spec",
    "run_quantized",
    "Core",
    "Pipeline",
    "PipelineConfig",
    "assemble",
    "schedule_kernel",
    "verify_program",
    "NullSink",
    "Telemetry",
    "__version__",
]
