"""Per-run segment reuse: each distinct segment is simulated once.

A layer too large for the array runs as back-to-back passes of one
geometry (``repro.mapping.tiling``), each its own segment.
``ModeledBackend.run`` calls a tier's ``_simulate_segment`` once per
distinct segment, keyed on its timings without the layer labels, and
relabels that outcome for every repeat.  The unshared reference is the
tier's hook run on a fresh report of each segment alone.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.core.perfmodel import LayerTiming
from repro.errors import MappingError
from repro.mapping.tiling import tile_network
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, vgg11_spec
from repro.sim import SimConfig, get_backend, simulate
from repro.sim.accounting import (
    exposed_filter_load_cycles,
    performance_model,
    segment_timings,
    segment_weight_bytes,
    staging_cycles,
    steady_interval,
)
from repro.sim.backends import _outcome_key
from repro.sim.report import SegmentReport

MODELED = ("analytic", "streaming", "event")
LABELS = ("index", "name")


def label_free(run):
    """The segment's timings with every layer's labels blanked."""
    return tuple(
        replace(lt, spec=replace(lt.spec, index=0, name="")) for lt in run.timings
    )


def count_hook_calls(monkeypatch, backend):
    """Count ``backend``'s ``_simulate_segment`` calls from now on."""
    calls = []
    tier = type(get_backend(backend))
    hook = tier._simulate_segment

    def counting(self, report, config):
        calls.append(report.segment)
        return hook(self, report, config)

    monkeypatch.setattr(tier, "_simulate_segment", counting)
    return calls


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
        first_of_shape = {}
        for run in report.runs:
            first_of_shape.setdefault(label_free(run), run.segment)
        # The fc6 and fc7 passes repeat one geometry each.
        assert len(first_of_shape) < len(report.runs)
        assert calls == list(first_of_shape.values())

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
    @pytest.fixture(scope="class")
    def timing(self):
        spec = ConvLayerSpec(1, "conv1", h=6, w=6, c=32, m=32)
        return performance_model(SimConfig()).layer_timing(spec, 4, from_dram=True)

    def test_labels_stay_out_of_the_key(self, timing):
        relabeled = replace(timing, spec=replace(timing.spec, index=9, name="x"))
        assert _outcome_key([relabeled]) == _outcome_key([timing])

    def test_every_other_spec_field_enters_the_key(self, timing):
        for f in fields(ConvLayerSpec):
            if f.name in LABELS:
                continue
            value = getattr(timing.spec, f.name)
            other = "shortcut" if f.name == "kind" else value + 1
            changed = replace(timing, spec=replace(timing.spec, **{f.name: other}))
            assert _outcome_key([changed]) != _outcome_key([timing]), f.name

    def test_every_timing_field_enters_the_key(self, timing):
        for f in fields(LayerTiming):
            if f.name == "spec":
                continue
            value = getattr(timing, f.name)
            if f.name in ("iteration", "dc"):
                first = fields(value)[0].name
                other = replace(value, **{first: getattr(value, first) + 1})
            else:
                other = value + 1
            changed = replace(timing, **{f.name: other})
            assert _outcome_key([changed]) != _outcome_key([timing]), f.name


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


class TestDrawnNetworks:
    @settings(max_examples=60, deadline=None)
    @given(tiled_networks())
    def test_each_report_equals_its_unshared_simulation(self, drawn):
        network, config = drawn
        model = performance_model(config)
        for backend in MODELED:
            tier = get_backend(backend)
            report = simulate(network, backend=backend, config=config)
            total = 0.0
            for k, run in enumerate(report.runs):
                timings = segment_timings(model, run.segment)
                fresh = SegmentReport(
                    segment=run.segment,
                    timings=timings,
                    compute_cycles=0.0,
                    filter_load_cycles=exposed_filter_load_cycles(
                        config, segment_weight_bytes(run.segment)
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
            assert report.total_cycles == total, backend
