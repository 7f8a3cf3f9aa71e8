"""Segment streaming simulator: pipelining, waiting, Fig. 9 breakdowns.

The per-vector tandem-queue loop the tier used to run lives on here as
a reference: the vectorized ``run()`` must equal it exactly.  So does
the scalar loop ``station_scan`` used to run when a station queued.
The dependence map the tier reads is checked against the streamed
executor in ``tests/core/test_functional_streaming.py``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.perfmodel import PerformanceModel
from repro.core.streaming import (
    _RUN_WINDOW,
    LayerReport,
    SegmentSimulator,
    dependence_map,
    station_scan,
)
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


# -- the scalar reference ------------------------------------------------------


def reference_run(timings, requests=1):
    """The per-vector tandem-queue loop ``SegmentSimulator.run`` replaced."""
    layers = []
    producer_of, sources = dependence_map(timings)
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
                for v, src in enumerate(sources[li].tolist()):
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


def reference_scan(arrivals, service):
    """The per-vector FIFO loop ``station_scan`` ran when a station queued."""
    starts = arrivals.tolist()
    busy = -math.inf
    for v, a in enumerate(starts):
        if busy > a:
            starts[v] = busy
            busy += service
        else:
            busy = a + service
    return np.asarray(starts)


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

    def test_strided_pointwise_producer_feeds_its_consumer_as_it_streams(self, model):
        # The 1x1 stride-2 producer streams the 4x4 subgrid of its 8x8
        # ifmap, and consumer vector k waits for producer vector k.  A
        # fast consumer therefore trails the slow producer by about one
        # vector; waiting for the producer's last vector instead would
        # leave 12 of its 16 vectors queued behind it.
        producer = ConvLayerSpec(1, "sc", h=8, w=8, c=64, m=256,
                                 r=1, s=1, stride=2, padding=0)
        sim = chain(model, (producer, 2), (conv(2, h=4, m=8), 8))
        first, second = sim.run()
        assert second.finish - first.finish < 3 * sim.timings[1].interval

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

    def test_strided_pointwise_producer_ranks_its_subgrid(self, model):
        # A 1x1 stride-2 layer over 8x8 streams only the 4x4 subgrid it
        # reads; ofmap pixel k is final once the subgrid's k-th pixel is
        # absorbed, so the consumer's sources are 0..15 in order.
        producer = conv(1, h=8, c=8, m=8, r=1, s=1, stride=2, padding=0)
        assert completion_grid(model, producer).reshape(-1).tolist() == list(range(16))

    def test_padding_only_window_is_a_simulation_error(self, model):
        # A 1x1 stride-3 producer with padding 2 on a 7x4 ifmap reads
        # ifmap rows 1 and 4 and column 1 only; the windows of its last
        # ofmap row and column cover only padding, so no streamed vector
        # finalizes those pixels.  The map used to rank such a clamped
        # corner one past the last streamed column, into the next row:
        # consumer vector 2 waited on producer vector 1 of a 2-vector
        # layer.
        producer = ConvLayerSpec(
            1, "p", h=7, w=4, c=16, m=16, r=1, s=1, stride=3, padding=2
        )
        consumer = ConvLayerSpec(2, "c", h=4, w=3, c=16, m=16)
        assert producer.ofmap_hw == (4, 3)
        ts = [
            model.layer_timing(producer, 1, from_dram=True),
            model.layer_timing(consumer, 1),
        ]
        with pytest.raises(SimulationError, match="'c' .* 'p' .*only padding"):
            dependence_map(ts)

    def test_padding_past_a_unit_kernel_is_a_simulation_error(self, model):
        # A 1x1 stride-1 producer with padding 1 on a 3x3 ifmap has a 5x5
        # ofmap whose border windows cover only padding.  The top and
        # left ones used to rank their negative corner as vector 0 and
        # the bottom and right ones to clamp onto the last vector, so the
        # map returned sources [[0 0 1 2 2] ...] without an error.
        producer = ConvLayerSpec(
            1, "p", h=3, w=3, c=16, m=16, r=1, s=1, stride=1, padding=1
        )
        consumer = ConvLayerSpec(2, "c", h=5, w=5, c=16, m=16)
        assert producer.ofmap_hw == (5, 5)
        ts = [
            model.layer_timing(producer, 1, from_dram=True),
            model.layer_timing(consumer, 1),
        ]
        with pytest.raises(SimulationError, match="'c' .* 'p' .*only padding"):
            dependence_map(ts)

    def test_monotonic_in_raster_order(self, model):
        # Later ofmap pixels never depend on earlier ifmap vectors than
        # their predecessors: arrival rank is non-decreasing in raster
        # order, which is what lets the tiers stream without reordering.
        producer = conv(1, h=14, c=16, m=16, r=3, s=3, stride=2, padding=1)
        ranks = completion_grid(model, producer).reshape(-1).tolist()
        assert ranks == sorted(ranks)
        assert max(ranks) <= producer.h * producer.w - 1


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


#: Service times: none, whole cycles, dyadic and non-dyadic fractions.
SERVICES = st.sampled_from([0.0, 1.0, 42.0, 335.0, 0.5, 0.375, 0.1, 335.4]) | (
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
)

#: Where the arrivals sit: busy runs near 2**20 and 2**40 cross a binade,
#: where the spacing of the doubles they accumulate doubles.
MAGNITUDES = st.sampled_from([0.0, 2.0**20, 2.0**40])


@st.composite
def station_inputs(draw):
    """Arrivals at one FIFO station and its service time.

    Short lists are drawn value by value; long ones (several repair
    windows) come from a seeded generator, in one of four shapes: all
    zero (a source layer), sorted with gaps around the service time
    (queues that build and drain), unsorted, and a few repeated values.
    """
    service = draw(SERVICES)
    if draw(st.booleans()):
        values = draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, service]),
            max_size=40,
        ))
        return np.array(values, dtype=float), service
    n = draw(st.integers(2, 6 * _RUN_WINDOW))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = service or 1.0
    shape = draw(st.sampled_from(["zeros", "sorted", "unsorted", "repeated"]))
    if shape == "zeros":
        arrivals = np.zeros(n)
    elif shape == "sorted":
        load = draw(st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0]))
        arrivals = np.cumsum(rng.exponential(scale * load, n))
    elif shape == "unsorted":
        arrivals = rng.uniform(0.0, scale * n, n)
    else:
        arrivals = rng.choice(rng.uniform(0.0, scale * n, 8), n)
        if draw(st.booleans()):
            arrivals.sort()
    magnitude = draw(MAGNITUDES)
    if magnitude:
        # Centre the arrivals on the binade boundary.
        arrivals += magnitude - scale * n / 2
    return arrivals, service


#: A source layer's station at each magnitude: every vector queues behind
#: the first, so the whole station is one busy run over several windows.
ONE_LONG_RUN = [
    (np.full(3 * _RUN_WINDOW + 7, magnitude), service)
    for magnitude, service in [(0.0, 335.4), (2.0**20, 0.1), (2.0**40, 1.0)]
]


class TestStationScanEqualsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(station_inputs())
    @example(ONE_LONG_RUN[0])
    @example(ONE_LONG_RUN[1])
    @example(ONE_LONG_RUN[2])
    def test_same_bytes_and_input_untouched(self, drawn):
        arrivals, service = drawn
        before = arrivals.copy()
        starts = station_scan(arrivals, service)
        assert starts.tobytes() == reference_scan(before, service).tobytes()
        assert arrivals.tobytes() == before.tobytes()
