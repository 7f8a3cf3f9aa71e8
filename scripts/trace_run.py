#!/usr/bin/env python3
"""Run a workload with telemetry enabled; write metrics.json + trace.json.

The metrics file is the full :class:`~repro.telemetry.MetricsRegistry`
export; the trace file is Chrome trace-event JSON, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` — one track per core /
NoC link / DRAM bank / layer.  All timestamps are simulation time, so two
identical invocations produce byte-identical files.

Workloads:

* ``tiny`` — a smoke workload exercising every instrumented subsystem:
  a small bit-true node group, a cycle-level kernel on one core, a burst
  of contended NoC packets, a sweep of DRAM accesses, and a tagged event
  queue.  Used by the CI trace-schema job.
* ``resnet18-segment`` — the bit-true ResNet18 conv1_x segment of
  ``scripts/bench.py`` (6x6 ifmap, 64 channels) on a full node group.
* ``table4`` — the paper's single-node Table 4 workload on the
  cycle-level pipeline (slowest; ~minutes).

Run:  PYTHONPATH=src python scripts/trace_run.py --workload tiny \\
          --metrics-out metrics.json --trace-out trace.json --validate
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import telemetry
from repro.core.functional import FunctionalNodeGroup, bit_true_min_nodes
from repro.core.node import MAICCNode, table4_workload
from repro.dram.controller import DRAMController
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.noc.mesh import MeshNoC
from repro.noc.packet import Packet, PacketKind
from repro.riscv.core import Core
from repro.riscv.memory import DRAM_BASE
from repro.sim import SimConfig, available_backends, simulate
from repro.telemetry.trace import validate_chrome_trace
from repro.utils.events import EventQueue


def _sim_summary(network: NetworkSpec, backend: str) -> dict:
    """Deterministic chip-tier numbers for the selected repro.sim tier."""
    report = simulate(network, backend=backend)
    return {
        "backend": report.backend,
        "total_cycles": report.total_cycles,
        "latency_ms": report.latency_ms,
        "segments": len(report.runs),
    }


def _segment_group(spec: ConvLayerSpec, seed: int) -> FunctionalNodeGroup:
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-1000, 1000, spec.m)
    group = FunctionalNodeGroup(
        spec, weights, bias,
        num_computing=bit_true_min_nodes(spec, CapacityModel()),
        bit_true=True,
    )
    group.run(rng.integers(-128, 128, (spec.c, spec.h, spec.w)))
    return group


def run_tiny(sink: telemetry.Telemetry, backend: str = "streaming") -> dict:
    """Touch every instrumented subsystem once, quickly."""
    # 1. Functional tier: a small bit-true node group (per-core + layer tracks).
    spec = ConvLayerSpec(
        index=0, name="tiny-conv", h=4, w=4, c=16, m=4,
        r=3, s=3, stride=1, padding=1, n_bits=8,
    )
    group = _segment_group(spec, seed=7)

    # 2. Cycle tier: one kernel on one core (kernel span + pipeline stats).
    core = Core()
    a = np.arange(-50, 50)
    b = np.arange(0, 100)
    core.cmem.store_vector_transposed(1, 0, a, 8, signed=True)
    core.cmem.store_vector_transposed(1, 8, b, 8, signed=True)
    stats = core.run("mac.c a0, 1, 0, 8, 8\nmac.c a1, 1, 0, 8, 8\nhalt")

    # 3. NoC: a contended neighbour stream (link spans + occupancy) on
    #    the default machine's mesh, at its hop delay.
    machine = SimConfig()
    noc = MeshNoC(
        machine.chip.mesh_width,
        machine.chip.mesh_height,
        machine.params.hop_latency,
    )
    for i in range(8):
        noc.send(
            Packet(src=(0, 0), dst=(2, 1), kind=PacketKind.ROW_TRANSFER),
            inject_time=i,
        )
    noc.publish_stats()

    # 4. DRAM: a row-hit/miss sweep (bank spans + counters).
    dram = DRAMController()
    t = 0
    for i in range(16):
        t += dram.access_latency(DRAM_BASE + 64 * i, is_write=i % 2 == 0, time=t)
    dram.publish_stats()

    # 5. Event kernel: tagged events land on the events track.
    queue = EventQueue()
    for i in range(4):
        queue.schedule(float(i), lambda: None, tag="tick")
    queue.run()

    return {
        "group_macs": int(group.stats.macs),
        "kernel_cycles": int(stats.cycles),
        "noc_packets": int(noc.stats.packets),
        "dram_accesses": int(dram.stats.accesses),
        "events": int(queue.processed),
        "sim": _sim_summary(small_cnn_spec(), backend),
    }


def run_resnet18_segment(
    sink: telemetry.Telemetry, backend: str = "streaming"
) -> dict:
    # conv1_x of ResNet18 with the spatial extent cut to 6x6 (as in
    # scripts/bench.py) so the bit-true group finishes in seconds.
    spec = ConvLayerSpec(
        index=1, name="conv1_x[6x6]", h=6, w=6, c=64, m=64,
        r=3, s=3, stride=1, padding=1, n_bits=8,
    )
    group = _segment_group(spec, seed=3)
    return {
        "nodes": group.num_computing,
        "vectors": int(group.stats.vectors_streamed),
        "macs": int(group.stats.macs),
        "sim": _sim_summary(
            NetworkSpec(name="resnet18-segment", layers=(spec,)), backend
        ),
    }


def run_table4(sink: telemetry.Telemetry, backend: str = "streaming") -> dict:
    spec = table4_workload()
    rng = np.random.default_rng(4)
    node = MAICCNode(
        spec,
        rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s)),
        rng.integers(-1000, 1000, spec.m),
    )
    result = node.run(rng.integers(-128, 128, (spec.c, spec.h, spec.w)))
    return {
        "cycles": int(result.stats.cycles),
        "instructions": int(result.stats.instructions),
        "ipc": result.stats.ipc,
    }


WORKLOADS = {
    "tiny": run_tiny,
    "resnet18-segment": run_resnet18_segment,
    "table4": run_table4,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="tiny")
    parser.add_argument(
        "--backend", choices=sorted(available_backends()), default="streaming",
        help="repro.sim tier for the chip-level summary section",
    )
    parser.add_argument("--metrics-out", metavar="PATH", default="metrics.json")
    parser.add_argument("--trace-out", metavar="PATH", default="trace.json")
    parser.add_argument(
        "--validate", action="store_true",
        help="validate the emitted trace against the Chrome trace-event schema",
    )
    args = parser.parse_args(argv)

    sink = telemetry.Telemetry()
    with telemetry.use(sink):
        summary = WORKLOADS[args.workload](sink, backend=args.backend)

    metrics = {"workload": args.workload, "summary": summary,
               "registry": sink.registry.as_dict()}
    with open(args.metrics_out, "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    trace = sink.trace.to_chrome()
    with open(args.trace_out, "w") as f:
        json.dump(trace, f, indent=2, sort_keys=True)
        f.write("\n")

    if args.validate:
        with open(args.trace_out) as f:
            n = validate_chrome_trace(json.load(f))
        print(f"trace OK: {n} events pass the Chrome trace-event schema")

    print(f"workload {args.workload}: {summary}")
    print(f"wrote {os.path.abspath(args.metrics_out)}")
    print(f"wrote {os.path.abspath(args.trace_out)} (open in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
