"""Segment streaming simulator: pipelining, waiting, Fig. 9 breakdowns.

The scalar loops the tier used to run — the per-pixel completion index,
the per-consumer source loop and the per-vector tandem queue — live on
here as references: the vectorized dependence map and ``run()`` must
equal them exactly.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.perfmodel import PerformanceModel
from repro.core.streaming import LayerReport, SegmentSimulator, dependence_map
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, resnet18_spec


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


def chain(model, *layer_node_pairs, from_dram=True):
    timings = []
    for i, (spec, nodes) in enumerate(layer_node_pairs):
        timings.append(model.layer_timing(spec, nodes, from_dram=(i == 0 and from_dram)))
    return SegmentSimulator(timings)


def total_cycles(layers):
    """A segment's compute cycles: the latest layer finish."""
    return max(layer.finish for layer in layers)


def conv(index, h=14, c=256, m=50, **kw):
    defaults = dict(r=3, s=3, stride=1, padding=1)
    defaults.update(kw)
    return ConvLayerSpec(index, f"conv{index}", h=h, w=h, c=c, m=m, **defaults)


# -- the scalar references ------------------------------------------------------


def reference_source_index(producer, oy, ox):
    """Producer ifmap-vector index that completes ofmap pixel ``(oy, ox)``:
    the bottom-right corner of its window, clamped to the ifmap edge."""
    y = min(producer.h - 1, oy * producer.stride - producer.padding + producer.r - 1)
    x = min(producer.w - 1, ox * producer.stride - producer.padding + producer.s - 1)
    return y * producer.w + x


def reference_map(timings):
    """The per-consumer double loop both tiers used to run."""
    producer_of = [None] * len(timings)
    sources = [None] * len(timings)
    for li, lt in enumerate(timings):
        spec = lt.spec
        for pj in range(li - 1, -1, -1):
            if timings[pj].spec.ofmap_hw == (spec.h, spec.w):
                producer_of[li] = pj
                break
        if producer_of[li] is None:
            continue
        producer = timings[producer_of[li]]
        oh, ow = producer.spec.ofmap_hw
        step = int(round(math.sqrt(oh * ow / lt.iterations))) or 1
        src = []
        for oy in range(0, oh, step):
            for ox in range(0, ow, step):
                if len(src) >= lt.iterations:
                    break
                src.append(min(
                    reference_source_index(producer.spec, oy, ox),
                    producer.iterations - 1,
                ))
        while len(src) < lt.iterations:
            src.append(src[-1] if src else 0)
        sources[li] = src
    return producer_of, sources


def reference_run(timings, requests=1):
    """The per-vector tandem-queue loop ``SegmentSimulator.run`` replaced."""
    layers = []
    producer_of, sources = reference_map(timings)
    history = []
    for li, lt in enumerate(timings):
        iterations = lt.iterations
        total = iterations * requests
        interval = lt.interval
        if producer_of[li] is None:
            arrivals = np.zeros(total)
        else:
            prev_departures = history[producer_of[li]]
            prev_iterations = len(prev_departures) // requests
            arrivals = np.empty(total)
            for r in range(requests):
                for v, src in enumerate(sources[li]):
                    arrivals[r * iterations + v] = (
                        prev_departures[r * prev_iterations + src] + lt.fill_per_hop
                    )
        departures = np.empty(total)
        t = 0.0
        wait = 0.0
        for v in range(total):
            ready = arrivals[v]
            start = max(ready, t)
            wait += max(0.0, ready - t)
            t = start + interval
            departures[v] = t + lt.fill
        layers.append(LayerReport(
            index=lt.spec.index,
            name=lt.spec.name,
            computing_nodes=lt.computing_nodes,
            iterations=total,
            interval_work=interval,
            start=float(arrivals[0]),
            finish=float(departures[-1]),
            total_wait=float(wait),
        ))
        history.append(departures)
    return layers


def completion_grid(model, producer):
    """The source of every ofmap pixel of ``producer``, as an ``(oh, ow)`` grid.

    The consumer is a full-coverage 3x3 layer over the producer's ofmap,
    so it streams one vector per ofmap pixel in raster order.
    """
    oh, ow = producer.ofmap_hw
    consumer = conv(2, h=oh, c=producer.m, m=8)
    ts = [model.layer_timing(producer, 4), model.layer_timing(consumer, 4)]
    assert ts[1].iterations == oh * ow
    producer_of, sources = dependence_map(ts)
    assert producer_of == [None, 0]
    return sources[1].reshape(oh, ow)


class TestSingleLayer:
    def test_total_matches_standalone_estimate(self, model):
        lt = model.layer_timing(conv(1), 10, from_dram=True)
        sim = SegmentSimulator([lt])
        total = total_cycles(sim.run())
        assert total == pytest.approx(lt.standalone_cycles, rel=0.05)

    def test_empty_segment_rejected(self):
        with pytest.raises(SimulationError):
            SegmentSimulator([])


class TestPipelining:
    def test_two_layers_overlap(self, model):
        sim = chain(model, (conv(1), 25), (conv(2), 25))
        total = total_cycles(sim.run())
        serial = sum(
            model.layer_timing(conv(i), 25).standalone_cycles for i in (1, 2)
        )
        assert total < 0.8 * serial

    def test_slow_producer_stalls_consumer(self, model):
        # A consumer with many more nodes than the producer must wait.
        sim = chain(model, (conv(1, m=100), 20), (conv(2, m=100), 90))
        consumer = sim.run()[1]
        assert consumer.index == 2
        assert consumer.mean_wait > 0

    def test_balanced_chain_waits_little(self, model):
        sim = chain(model, (conv(1), 40), (conv(2), 40))
        consumer = sim.run()[1]
        assert consumer.index == 2
        assert consumer.mean_wait < consumer.interval_work

    def test_downsample_shortcut_producer_matching(self, model):
        """A layer list with a shortcut still finds geometric producers."""
        net = resnet18_spec()
        timings = [
            model.layer_timing(net.layer(i), nodes)
            for i, nodes in [(1, 16), (2, 16), (3, 16), (4, 16), (5, 2), (6, 8)]
        ]
        layers = SegmentSimulator(timings).run()
        assert total_cycles(layers) > 0
        assert len(layers) == 6

    @pytest.mark.parametrize("requests", [1, 2, 3])
    def test_resnet18_segment_equals_the_per_vector_loop(self, model, requests):
        net = resnet18_spec()
        timings = [
            model.layer_timing(net.layer(i), nodes, from_dram=(i == 1))
            for i, nodes in [(1, 16), (2, 16), (3, 16), (4, 16), (5, 2), (6, 8)]
        ]
        new = SegmentSimulator(timings, requests=requests).run()
        old = reference_run(timings, requests)
        assert new == old


class TestBreakdown:
    def test_components_sum_to_total(self, model):
        sim = chain(model, (conv(9, h=28, c=128, m=128), 13))
        breakdown = sim.core_breakdown(9)
        assert breakdown.total == pytest.approx(
            breakdown.compute + breakdown.send_ifmap + breakdown.send_ofmap
            + breakdown.wait_ifmap + breakdown.other
        )

    def test_starved_layer_shows_waiting(self, model):
        sim = chain(model, (conv(1, m=100), 20), (conv(2, m=100), 90))
        breakdown = sim.core_breakdown(2)
        assert breakdown.wait_ifmap > breakdown.compute

    def test_send_costs_stable_across_allocations(self, model):
        """Fig. 9: ifmap-forwarding cost does not depend on node count."""
        few = chain(model, (conv(9, h=28, c=128, m=128), 13)).core_breakdown(9)
        many = chain(model, (conv(9, h=28, c=128, m=128), 60)).core_breakdown(9)
        assert few.send_ifmap == many.send_ifmap

    def test_compute_shrinks_with_more_nodes(self, model):
        few = chain(model, (conv(9, h=28, c=128, m=128), 13)).core_breakdown(9)
        many = chain(model, (conv(9, h=28, c=128, m=128), 60)).core_breakdown(9)
        assert many.compute < few.compute

    def test_layer_outside_the_segment_is_a_simulation_error(self, model):
        sim = chain(model, (conv(9, h=28, c=128, m=128), 13))
        with pytest.raises(SimulationError, match="layer 99"):
            sim.core_breakdown(99)


class TestCompletionSourceIndex:
    """The producer->consumer dependence (both streaming tiers key on
    :func:`dependence_map`; see repro.sim.xcheck)."""

    def test_interior_pixel_needs_bottom_right_of_window(self, model):
        # 3x3 window, stride 1, padding 1 on a 4x4 ifmap: ofmap (1, 1)
        # reads ifmap rows/cols 0..2, so vector (2, 2) completes it.
        producer = conv(1, h=4, c=8, m=8)
        assert completion_grid(model, producer)[1, 1] == 2 * 4 + 2

    def test_padding_clamps_to_the_ifmap_edge(self, model):
        # The (3, 3) window hangs past the ifmap; the last *real* vector
        # is the corner (3, 3), not the padded phantom (4, 4).
        producer = conv(1, h=4, c=8, m=8)
        assert completion_grid(model, producer)[3, 3] == 3 * 4 + 3

    def test_top_left_pixel_with_padding(self, model):
        # ofmap (0, 0) only needs ifmap up to (1, 1): the padded part of
        # its window contributes nothing.
        producer = conv(1, h=4, c=8, m=8)
        assert completion_grid(model, producer)[0, 0] == 1 * 4 + 1

    def test_stride_advances_the_window(self, model):
        producer = conv(1, h=8, c=8, m=8, r=2, s=2, stride=2, padding=0)
        grid = completion_grid(model, producer)
        assert grid[0, 0] == 1 * 8 + 1
        assert grid[1, 1] == 3 * 8 + 3

    def test_pointwise_conv_is_the_identity_on_raster_rank(self, model):
        producer = conv(1, h=6, c=8, m=8, r=1, s=1, stride=1, padding=0)
        grid = completion_grid(model, producer)
        for oy in range(6):
            for ox in range(6):
                assert grid[oy, ox] == oy * 6 + ox

    def test_monotonic_in_raster_order(self, model):
        # Later ofmap pixels never depend on earlier ifmap vectors than
        # their predecessors: arrival rank is non-decreasing in raster
        # order, which is what lets the tiers stream without reordering.
        producer = conv(1, h=14, c=16, m=16, r=3, s=3, stride=2, padding=1)
        ranks = completion_grid(model, producer).reshape(-1).tolist()
        assert ranks == sorted(ranks)
        assert max(ranks) <= producer.h * producer.w - 1


KERNELS = st.sampled_from([1, 3, 5, 7])


@st.composite
def producer_consumer(draw):
    """A producer layer and a consumer over its ofmap, with drawn vector
    counts: subsampled consumers (1x1 stride-2 shortcuts) read a subgrid,
    consumers with more vectors than grid points repeat the last source,
    and producers that streamed a subgrid clamp it."""
    r, s = draw(KERNELS), draw(KERNELS)
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, max(r, s) - 1))
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    producer = ConvLayerSpec(
        0, "producer", h=h, w=w, c=8, m=8, r=r, s=s, stride=stride, padding=padding
    )
    oh, ow = producer.ofmap_hw
    if oh < 1 or ow < 1:
        padding = max(r, s) - 1
        producer = dataclasses.replace(producer, padding=padding)
        oh, ow = producer.ofmap_hw
    kind = draw(st.sampled_from(["full", "shortcut", "padded"]))
    consumer = ConvLayerSpec(
        1, "consumer", h=oh, w=ow, c=8, m=8,
        r=1 if kind == "shortcut" else 3, s=1 if kind == "shortcut" else 3,
        stride=2 if kind == "shortcut" else 1, padding=0 if kind == "shortcut" else 1,
    )
    model = PerformanceModel()
    ps = model.layer_timing(producer, 2, from_dram=True)
    cs = model.layer_timing(consumer, 2)
    ps = dataclasses.replace(ps, iterations=draw(st.integers(1, h * w)))
    if kind == "padded":
        cs = dataclasses.replace(cs, iterations=oh * ow + draw(st.integers(1, 9)))
    return [ps, cs]


class TestDependenceMap:
    """The vectorized map equals the per-pixel double loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(producer_consumer(), st.integers(1, 3))
    def test_equals_the_double_loop(self, ts, requests):
        producer_of, sources = dependence_map(ts, requests)
        ref_producer_of, ref_sources = reference_map(ts)
        assert producer_of == ref_producer_of == [None, 0]
        assert sources[0] is None
        per_request = ts[0].iterations
        assert sources[1].tolist() == [
            r * per_request + src for r in range(requests) for src in ref_sources[1]
        ]

    def test_pad_repeats_the_last_source(self, model):
        producer = model.layer_timing(conv(1, h=2, c=8, m=8), 2)
        consumer = dataclasses.replace(
            model.layer_timing(conv(2, h=2, c=8, m=8), 2), iterations=6
        )
        _, sources = dependence_map([producer, consumer])
        assert sources[1].tolist() == [3, 3, 3, 3, 3, 3]


#: One layer of a drawn chain: 3x3 same-size, 3x3 stride-2 (a geometry
#: change), 1x1 stride-1, or a 1x1 stride-2 shortcut.
LAYER_KINDS = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]


#: Extra cycles on a station's service time or hop.  Model timings are
#: mostly whole cycles, whose sums are exact in any order; arbitrary
#: doubles make the order in which waits are summed show in the bits.
JITTER = st.floats(0.0, 64.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains(draw):
    """1-4 layers whose ifmaps come from the chain's feature maps, so
    layers find producers by geometry, skip back to earlier ones
    (shortcuts) or restart from DRAM; node counts and timing jitter are
    drawn."""
    model = PerformanceModel()
    sizes = [draw(st.integers(2, 12))]
    timings = []
    for i in range(draw(st.integers(1, 4))):
        h = draw(st.sampled_from(sizes))
        k, stride, padding = draw(st.sampled_from(LAYER_KINDS))
        spec = ConvLayerSpec(
            i + 1, f"l{i + 1}", h=h, w=h, c=draw(st.sampled_from([16, 64])),
            m=draw(st.sampled_from([8, 32])), r=k, s=k, stride=stride,
            padding=padding,
        )
        least = model.capacity.min_nodes_split(spec)
        lt = model.layer_timing(
            spec, draw(st.integers(least, least + 7)), from_dram=(i == 0)
        )
        timings.append(dataclasses.replace(
            lt,
            dc=dataclasses.replace(lt.dc, t_overhead=lt.dc.t_overhead + draw(JITTER)),
            fill_per_hop=lt.fill_per_hop + draw(JITTER),
        ))
        sizes.append(spec.ofmap_hw[0])
    return timings


class TestRunEqualsThePerVectorLoop:
    @settings(max_examples=150, deadline=None)
    @given(chains(), st.integers(1, 3))
    def test_every_flow_field(self, timings, requests):
        new = SegmentSimulator(timings, requests=requests).run()
        old = reference_run(timings, requests)
        assert total_cycles(new) == total_cycles(old)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert (a.index, a.name) == (b.index, b.name)
            assert a.computing_nodes == b.computing_nodes
            assert a.start == b.start
            assert a.finish == b.finish
            assert a.iterations == b.iterations
            assert a.total_wait == b.total_wait
            assert a.interval_work == b.interval_work
