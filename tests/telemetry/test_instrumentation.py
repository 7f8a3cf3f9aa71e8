"""Differential + determinism tests for the instrumented simulators.

Pins the ISSUE-3 acceptance criteria:

* a bit-true ResNet18-segment node-group run with telemetry enabled
  emits a schema-valid trace with per-core tracks and per-layer spans,
  and registry counters **bit-identical** to the legacy ad-hoc stats
  (``PipelineStats``/``NoCStats``/``DRAMStats``/``GroupRunStats``);
* two identical runs produce byte-identical metrics and trace JSON
  (sim-time stamps only — no wall clock anywhere);
* with the default :class:`NullSink` nothing is recorded and the
  simulated numbers are unchanged.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.functional import FunctionalNodeGroup, bit_true_min_nodes
from repro.dram.controller import DRAMController
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec
from repro.noc.packet import Packet, PacketKind
from repro.riscv.core import Core
from repro.riscv.memory import DRAM_BASE
from repro.telemetry.trace import validate_chrome_trace
from repro.utils.events import EventQueue
from tests.mesh import paper_noc


SEGMENT_SPEC = ConvLayerSpec(
    index=1, name="conv1_x[6x6]", h=6, w=6, c=64, m=64,
    r=3, s=3, stride=1, padding=1, n_bits=8,
)


def _segment_inputs(spec=SEGMENT_SPEC, seed=3):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-1000, 1000, spec.m)
    ifmap = rng.integers(-128, 128, (spec.c, spec.h, spec.w))
    return weights, bias, ifmap


def _run_segment(sink):
    weights, bias, ifmap = _segment_inputs()
    with telemetry.use(sink):
        group = FunctionalNodeGroup(
            SEGMENT_SPEC, weights, bias,
            num_computing=bit_true_min_nodes(SEGMENT_SPEC, CapacityModel()),
            bit_true=True,
        )
        acc = group.run(ifmap)
    return group, acc


@pytest.mark.slow
class TestResNet18SegmentAcceptance:
    def test_registry_matches_legacy_group_stats_bit_identically(self):
        sink = telemetry.Telemetry()
        group, acc = _run_segment(sink)
        counters = {p: c.value for p, c in sink.registry.counters.items()}
        prefix = f"group/{SEGMENT_SPEC.name}"
        assert counters[f"{prefix}/vectors_streamed"] == group.stats.vectors_streamed
        assert counters[f"{prefix}/row_transfers"] == group.stats.row_transfers
        assert counters[f"{prefix}/macs"] == group.stats.macs
        assert counters[f"{prefix}/cmem_energy_pj"] == group.stats.cmem_energy_pj
        # Per-core CMem counters agree with each node's device tally.
        for k, node in enumerate(group._nodes):
            if node is None:
                continue
            cmem = node[2]
            assert counters[f"core/{k}/cmem/macs"] == cmem.stats.macs
            assert counters[f"core/{k}/cmem/busy_cycles"] == cmem.stats.busy_cycles

    def test_trace_has_per_core_tracks_and_layer_span(self):
        sink = telemetry.Telemetry()
        group, _ = _run_segment(sink)
        chrome = sink.trace.to_chrome()
        validate_chrome_trace(chrome)
        thread_names = {
            e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for k, node in enumerate(group._nodes):
            if node is not None:
                assert f"core/{k}" in thread_names
        assert f"layer/{SEGMENT_SPEC.name}" in thread_names
        layer_spans = [
            e for e in chrome["traceEvents"]
            if e["ph"] == "X" and e["name"] == SEGMENT_SPEC.name
        ]
        assert layer_spans, "expected per-layer spans in the trace"

    def test_two_identical_runs_are_byte_identical(self):
        a, b = telemetry.Telemetry(), telemetry.Telemetry()
        _run_segment(a)
        _run_segment(b)
        assert a.registry.to_json() == b.registry.to_json()
        assert a.trace.to_json() == b.trace.to_json()

    def test_null_sink_records_nothing_and_numbers_match(self):
        assert telemetry.current() is telemetry.NULL_SINK
        sink = telemetry.Telemetry()
        group_enabled, acc_enabled = _run_segment(sink)
        group_null, acc_null = _run_segment(telemetry.NULL_SINK)
        assert len(sink.trace) > 0
        np.testing.assert_array_equal(acc_enabled, acc_null)
        assert group_enabled.stats == group_null.stats


class TestPipelineInstrumentation:
    def _run_core(self, sink):
        with telemetry.use(sink):
            core = Core(node_id=4)
            a = np.arange(-50, 50)
            b = np.arange(0, 100)
            core.cmem.store_vector_transposed(1, 0, a, 8, signed=True)
            core.cmem.store_vector_transposed(1, 8, b, 8, signed=True)
            stats = core.run("mac.c a0, 1, 0, 8, 8\nmac.c a1, 1, 0, 8, 8\nhalt")
        return stats

    def test_registry_matches_pipeline_stats_bit_identically(self):
        sink = telemetry.Telemetry()
        stats = self._run_core(sink)
        counters = {p: c.value for p, c in sink.registry.counters.items()}
        for name in (
            "cycles", "instructions", "raw_stall_cycles", "waw_stall_cycles",
            "structural_stall_cycles", "wb_stall_cycles", "branch_flush_cycles",
            "cmem_instructions", "cmem_busy_cycles",
        ):
            assert counters[f"core/4/pipeline/{name}"] == getattr(stats, name)
        for category, cycles in stats.category_cycles.items():
            assert counters[f"core/4/pipeline/category/{category}"] == cycles

    def test_kernel_span_and_cmem_op_spans(self):
        sink = telemetry.Telemetry()
        stats = self._run_core(sink)
        spans = [e for e in sink.trace.events if e.ph == "X"]
        kernel = [e for e in spans if e.name == "kernel" and e.track == "core/4"]
        assert len(kernel) == 1
        assert kernel[0].dur == stats.cycles
        assert any(e.track == "core/4/cmem" and e.name == "mac.c" for e in spans)

    def test_reruns_stack_sequentially_on_the_core_track(self):
        sink = telemetry.Telemetry()
        self._run_core(sink)
        self._run_core(sink)
        chrome = sink.trace.to_chrome()
        validate_chrome_trace(chrome)
        kernels = [e for e in sink.trace.events if e.name == "kernel"]
        assert len(kernels) == 2
        assert kernels[1].ts >= kernels[0].ts + kernels[0].dur


class TestNoCInstrumentation:
    def test_registry_matches_noc_stats_bit_identically(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            noc = paper_noc()
            for i in range(5):
                noc.send(
                    Packet(src=(0, 0), dst=(2, 1), kind=PacketKind.ROW_TRANSFER),
                    inject_time=i,
                )
            noc.publish_stats()
        counters = {p: c.value for p, c in sink.registry.counters.items()}
        assert counters["noc/packets"] == noc.stats.packets
        assert counters["noc/flit_hops"] == noc.stats.flit_hops
        assert counters["noc/total_latency"] == noc.stats.total_latency
        assert sink.registry.gauges["noc/avg_latency"].value == noc.stats.avg_latency
        validate_chrome_trace(sink.trace.to_chrome())

    def test_per_link_spans_emitted(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            noc = paper_noc()
            noc.send(
                Packet(src=(0, 0), dst=(1, 0), kind=PacketKind.REMOTE_STORE),
                inject_time=0,
            )
        spans = [e for e in sink.trace.events if e.ph == "X"]
        assert [e.track for e in spans] == ["noc/0,0->1,0"]
        assert spans[0].name == "remote_store"


class TestDRAMInstrumentation:
    def test_registry_matches_dram_stats_bit_identically(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            dram = DRAMController()
            t = 0
            for i in range(8):
                t += dram.access_latency(
                    DRAM_BASE + 64 * i, is_write=i % 2 == 0, time=t
                )
            dram.publish_stats()
        counters = {p: c.value for p, c in sink.registry.counters.items()}
        assert counters["dram/reads"] == dram.stats.reads
        assert counters["dram/writes"] == dram.stats.writes
        assert counters["dram/row_hits"] == dram.stats.row_hits
        assert counters["dram/row_misses"] == dram.stats.row_misses
        validate_chrome_trace(sink.trace.to_chrome())

    def test_per_bank_spans_are_monotone(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            dram = DRAMController()
            for i in range(6):
                dram.access_latency(DRAM_BASE + 2048 * i, is_write=False, time=0)
        validate_chrome_trace(sink.trace.to_chrome())
        assert any(e.track.startswith("dram/ch") for e in sink.trace.events)


class TestEventTagTelemetry:
    def test_tagged_events_reach_the_recorder(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            q = EventQueue()
            q.schedule(1, lambda: None, tag="inject")
            q.schedule(2, lambda: None)  # untagged: counted nowhere
            q.schedule(3, lambda: None, tag="inject")
            q.run()
        assert sink.registry.counters["events/by_tag/inject"].value == 2
        instants = [e for e in sink.trace.events if e.ph == "i"]
        assert [e.ts for e in instants] == [1, 3]
        assert all(e.track == "events" for e in instants)

    def test_explicit_sink_overrides_ambient(self):
        explicit = telemetry.Telemetry()
        q = EventQueue(telemetry=explicit)
        q.schedule(1, lambda: None, tag="t")
        q.run()
        assert explicit.registry.counters["events/by_tag/t"].value == 1


class TestAmbientSink:
    def test_default_is_null_sink(self):
        assert telemetry.current() is telemetry.NULL_SINK
        assert not telemetry.current().enabled

    def test_use_scopes_and_restores(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            assert telemetry.current() is sink
            inner = telemetry.Telemetry()
            with telemetry.use(inner):
                assert telemetry.current() is inner
            assert telemetry.current() is sink
        assert telemetry.current() is telemetry.NULL_SINK

    def test_metrics_json_round_trips(self):
        sink = telemetry.Telemetry()
        sink.registry.counter("a/b").add(1)
        loaded = json.loads(sink.registry.to_json())
        assert loaded["counters"] == {"a/b": 1}
