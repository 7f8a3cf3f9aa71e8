"""MAICC proper: node architecture, kernels, streaming execution, chip.

This package is the paper's primary contribution:

* :mod:`repro.core.datalayout` — filter/ifmap placement inside the CMem
  (Fig. 6);
* :mod:`repro.core.conv_kernel` — the Algorithm-1 code generator emitting
  real (simulator) assembly for one computing core;
* :mod:`repro.core.scheduler` — compile-time (static) instruction
  reordering that fills CMem delay slots (Sec. 3.3);
* :mod:`repro.core.node` — a single MAICC node: core + CMem + kernels;
* :mod:`repro.core.functional` — bit-true / fast-functional multi-node
  execution of whole layers and networks (the correctness path), and
  :func:`~repro.core.functional.network_spec_of`, the mapped layers of a
  quantized graph;
* :mod:`repro.core.perfmodel` — the Eq. (1) timing model;
* :mod:`repro.core.streaming` — iteration-granularity simulation of node
  groups (pipeline fill, waiting, Fig. 9 breakdowns);
* :mod:`repro.core.chip` — the chip geometry (whole-chip runs go through
  :func:`repro.sim.simulate`);
* :mod:`repro.core.multi_dnn` — spatial multi-DNN parallel inference.
"""

from repro.core.datalayout import NodeLayout, plan_node_layout
from repro.core.perfmodel import (
    DCTiming,
    IterationTiming,
    LayerTiming,
    PerformanceModel,
    TimingParams,
)
from repro.core.node import MAICCNode, NodeRunResult, table4_workload
from repro.core.scheduler import static_schedule
from repro.core.functional import (
    FunctionalNodeGroup,
    network_spec_of,
    simulate_quantized_graph,
)
from repro.core.streaming import CoreBreakdown, SegmentSimulator
from repro.core.event_streaming import EventDrivenSegmentSimulator
from repro.core.traffic import TrafficResult, simulate_segment_traffic
from repro.core.chip import ChipConfig
from repro.core.multi_dnn import MultiDNNResult, MultiDNNScheduler

__all__ = [
    "NodeLayout",
    "plan_node_layout",
    "DCTiming",
    "IterationTiming",
    "LayerTiming",
    "PerformanceModel",
    "TimingParams",
    "MAICCNode",
    "NodeRunResult",
    "table4_workload",
    "static_schedule",
    "FunctionalNodeGroup",
    "network_spec_of",
    "simulate_quantized_graph",
    "CoreBreakdown",
    "SegmentSimulator",
    "EventDrivenSegmentSimulator",
    "TrafficResult",
    "simulate_segment_traffic",
    "ChipConfig",
    "MultiDNNResult",
    "MultiDNNScheduler",
]
