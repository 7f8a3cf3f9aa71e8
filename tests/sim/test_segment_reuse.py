"""Per-run reuse: each distinct layer shape is mapped and simulated once.

A layer too large for the array runs as back-to-back passes of one
geometry (``repro.mapping.tiling``), each its own segment, and ResNet
blocks repeat a layer shape.  Within one ``plan_network`` call the
allocator evaluates each (shape, cores) pair once and the strategies
allocate each distinct chunk once; within one ``ModeledBackend.run``
each distinct segment (``Segment.shape``: its layers' shapes and
computing cores) is timed, counted and simulated once, and every repeat
gets that work relabeled.  The unshared references are the allocator on
each chunk alone, and the accounting and the tier's hook on a fresh
report of each segment alone.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import repro.mapping.segmentation as segmentation
import repro.mapping.tiling as tiling
import repro.sim.backends as backends
from repro.energy.power import OpCounts
from repro.errors import MappingError
from repro.mapping.allocation import AllocationResult, allocate_segment
from repro.mapping.segmentation import GreedyStrategy, Segment
from repro.mapping.tiling import tile_network
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, vgg11_spec
from repro.sim import SimConfig, get_backend, simulate
from repro.sim.accounting import (
    count_segment_ops,
    exposed_filter_load_cycles,
    performance_model,
    plan_network,
    segment_timings,
    segment_weight_bytes,
    staging_cycles,
    steady_interval,
)
from repro.sim.report import SegmentReport

MODELED = ("analytic", "streaming", "event")
LABELS = ("index", "name")


def label_free(run):
    """The segment's timings with every layer's labels blanked."""
    return tuple(
        replace(lt, spec=replace(lt.spec, index=0, name="")) for lt in run.timings
    )


def count_calls(monkeypatch, owner, name, arg=0):
    """Record argument ``arg`` of every call of ``owner.name`` from now on."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[arg])
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_hook_calls(monkeypatch, backend):
    """The report of every ``_simulate_segment`` call of ``backend``'s
    tier from now on."""
    tier = type(get_backend(backend))
    return count_calls(monkeypatch, tier, "_simulate_segment", arg=1)


def first_of_each(items, key):
    """The first item of each distinct ``key``, in order."""
    first = {}
    for item in items:
        first.setdefault(key(item), item)
    return list(first.values())


def chunk_shape(layers):
    return tuple(spec.shape for spec in layers)


def planned(network, config):
    """``network`` tiled for ``config``'s array, then planned."""
    tiled = tile_network(network, config.capacity, config.array_size)
    return plan_network(tiled, config.strategy, config)


def tiled_fc_network():
    """Two 3x3 convolutions of one geometry, then an FC layer that a
    24-core array runs in four passes: 64, 64, 64 and 63 filters."""
    conv = dict(h=6, w=6, c=32, m=32)
    return NetworkSpec(
        name="tiled-fc",
        layers=(
            ConvLayerSpec(1, "conv1", **conv),
            ConvLayerSpec(2, "conv2", **conv),
            ConvLayerSpec(
                3, "fc", h=1, w=1, c=4096, m=255, r=1, s=1, padding=0,
                kind="linear",
            ),
        ),
    )


class TestOncePerDistinctSegment:
    @pytest.mark.parametrize("backend", MODELED)
    def test_vgg11_simulates_each_distinct_segment_once(self, backend, monkeypatch):
        calls = count_hook_calls(monkeypatch, backend)
        report = simulate(vgg11_spec(), backend=backend)
        distinct = first_of_each(report.runs, label_free)
        # The fc6 and fc7 passes repeat one geometry each.
        assert len(distinct) < len(report.runs)
        assert [r.segment for r in calls] == [run.segment for run in distinct]

    @pytest.mark.parametrize("backend", MODELED)
    def test_vgg11_maps_and_accounts_each_distinct_shape_once(
        self, backend, monkeypatch
    ):
        config = SimConfig()
        allocated = count_calls(monkeypatch, segmentation, "allocate_segment")
        plan = planned(vgg11_spec(), config)
        chunks = [segment.layers for segment in plan.segments]
        assert allocated == first_of_each(chunks, chunk_shape)
        assert len(allocated) < len(chunks)

        timed = count_calls(monkeypatch, backends, "segment_timings", arg=1)
        counted = count_calls(monkeypatch, backends, "count_segment_ops", arg=3)
        tiled = count_calls(monkeypatch, backends, "tile_network")
        report = simulate(vgg11_spec(), backend=backend, config=config, plan=plan)
        distinct = first_of_each(plan.segments, lambda segment: segment.shape)
        assert timed == counted == distinct
        assert len(distinct) < len(report.runs)
        # No tiling again: the report's network is the one the plan maps.
        assert tiled == []
        assert report.network is plan.network

    def test_a_plan_of_another_network_is_rejected(self):
        config = SimConfig()
        plan = planned(vgg11_spec(), config)
        other = NetworkSpec(name="other", layers=plan.network.layers)
        with pytest.raises(MappingError, match="maps 'vgg11'"):
            simulate(other, config=config, plan=plan)

    def test_each_layer_is_tiled_once(self, monkeypatch):
        # simulate() tiles the network it is given; planning the tiled
        # network must not walk its passes through the tiling again.
        tiled = count_calls(monkeypatch, tiling, "passes_required")
        simulate(vgg11_spec())
        assert tiled == list(vgg11_spec().layers)

    def test_cycle_tier_runs_every_segment(self, monkeypatch):
        calls = count_hook_calls(monkeypatch, "cycle")
        report = simulate(
            tiled_fc_network(), backend="cycle", strategy="single-layer",
            config=SimConfig(array_size=24),
        )
        assert len(calls) == len(report.runs)
        # Its operands are seeded by the layer index: the first three fc
        # passes share a shape but not a checksum.
        passes = [run for run in report.runs if run.timings[0].spec.kind == "linear"]
        assert len({label_free(run) for run in passes[:3]}) == 1
        assert len({run.checksum for run in passes[:3]}) == 3


class TestOutcomeKey:
    """``Segment.shape``, the key of every shared outcome."""

    @pytest.fixture(scope="class")
    def segment(self):
        conv = dict(h=6, w=6, c=32, m=32)
        layers = [ConvLayerSpec(1, "conv1", **conv), ConvLayerSpec(2, "conv2", **conv)]
        allocation = AllocationResult(nodes={1: 4, 2: 5}, times={1: 9.0, 2: 8.0})
        return Segment(layers=layers, allocation=allocation)

    def test_labels_stay_out_of_the_key(self, segment):
        layers = [
            replace(spec, index=spec.index + 8, name=f"x{spec.index}")
            for spec in segment.layers
        ]
        relabeled = Segment(
            layers=layers,
            allocation=segment.allocation.relabeled([9, 10]),
        )
        assert relabeled.shape == segment.shape

    def test_every_other_spec_field_enters_the_key(self, segment):
        first = segment.layers[0]
        for f in fields(ConvLayerSpec):
            if f.name in LABELS:
                continue
            value = getattr(first, f.name)
            other = "shortcut" if f.name == "kind" else value + 1
            changed = replace(
                segment, layers=[replace(first, **{f.name: other}), segment.layers[1]]
            )
            assert changed.shape != segment.shape, f.name

    def test_each_node_count_enters_the_key(self, segment):
        for index in segment.allocation.nodes:
            nodes = dict(segment.allocation.nodes)
            nodes[index] += 1
            changed = replace(
                segment, allocation=replace(segment.allocation, nodes=nodes)
            )
            assert changed.shape != segment.shape, index


@st.composite
def tiled_networks(draw):
    """1-3 convolutions of one drawn geometry (so segments can repeat
    it), an optional second geometry, and 0-2 FC layers wide enough to
    run in several passes on a 12-48 core array."""
    h = draw(st.integers(3, 8))
    c = draw(st.sampled_from((8, 16, 32, 64)))
    r = draw(st.sampled_from((1, 3)))
    layers = []

    def add(**kw):
        index = len(layers) + 1
        layers.append(ConvLayerSpec(index, f"l{index}", **kw))

    for _ in range(draw(st.integers(1, 3))):
        add(h=h, w=h, c=c, m=c, r=r, s=r, padding=r // 2)
    if draw(st.booleans()):
        add(h=h, w=h, c=c, m=draw(st.sampled_from((8, 48))), stride=2)
    for _ in range(draw(st.integers(0, 2))):
        add(h=1, w=1, c=draw(st.sampled_from((2048, 4096))),
            m=draw(st.integers(64, 300)), r=1, s=1, padding=0, kind="linear")
    config = SimConfig(array_size=draw(st.integers(12, 48))).with_run(
        strategy=draw(st.sampled_from(("heuristic", "greedy", "single-layer"))),
        batch=draw(st.integers(1, 2)),
        batch_requests=draw(st.integers(1, 3)),
    )
    network = NetworkSpec(name="drawn", layers=tuple(layers))
    try:
        tile_network(network, config.capacity, config.array_size)
    except MappingError:
        reject()  # no pass count fits the drawn FC layer on this array
    return network, config


def allocated_alone(layers, config):
    """A segment's allocation computed for its chunk alone, on an
    unmemoized timing function."""
    timing = performance_model(config).layer_time_fn()
    if config.strategy == "greedy":
        strategy = GreedyStrategy(config.array_size, config.capacity)
        return strategy._close(list(layers), timing).allocation
    return allocate_segment(layers, config.array_size, timing, config.capacity)


def in_order(allocation):
    return (
        list(allocation.nodes.items()),
        list(allocation.times.items()),
        allocation.bottleneck_time,
    )


class TestDrawnNetworks:
    @settings(max_examples=60, deadline=None)
    @given(tiled_networks())
    def test_each_report_equals_its_unshared_simulation(self, drawn):
        network, config = drawn
        model = performance_model(config)
        plan = planned(network, config)
        for segment in plan.segments:
            alone = allocated_alone(segment.layers, config)
            assert in_order(segment.allocation) == in_order(alone)
        for backend in MODELED:
            tier = get_backend(backend)
            report = simulate(network, backend=backend, config=config)
            total = 0.0
            ops = OpCounts()
            for k, run in enumerate(report.runs):
                timings = segment_timings(model, run.segment)
                weight_bytes = segment_weight_bytes(run.segment)
                fresh = SegmentReport(
                    segment=run.segment,
                    timings=timings,
                    compute_cycles=0.0,
                    filter_load_cycles=exposed_filter_load_cycles(
                        config, weight_bytes
                    ),
                    staging_cycles=staging_cycles(config, report.plan, k) * config.batch,
                    steady_interval=steady_interval(timings),
                )
                simulated = tier._simulate_segment(fresh, config)
                assert run == fresh, f"{backend}: segment {k}"
                steady = fresh.steady_interval
                total += (
                    fresh.cycles
                    + (config.batch_requests - simulated) * steady
                    + config.batch_requests * (config.batch - 1) * steady
                )
                count_segment_ops(
                    ops, model, config.capacity, run.segment, timings,
                    fresh.compute_cycles, weight_bytes,
                    batch=config.batch * config.batch_requests,
                )
            assert report.total_cycles == total, backend
            assert report.ops == ops, backend
