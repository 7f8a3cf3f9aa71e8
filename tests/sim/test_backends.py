"""Backend parity matrix: every tier, multiple strategies, one contract.

The matrix runs the same network through all four registered backends
under both the default mapping strategy and a non-default one, and holds
each tier to the cross-check envelope against the streaming reference.
Tier-specific evidence (event counts, cycle-tier numerics) is asserted
where the tier produces it.
"""

from dataclasses import replace

import pytest

from repro.errors import MappingError, SimulationError
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.sim import DEFAULT_ENVELOPE, SimConfig, available_backends, simulate

STRATEGIES = ("heuristic", "greedy")


def at_precision(network, n_bits):
    return NetworkSpec(
        name=network.name,
        layers=tuple(replace(layer, n_bits=n_bits) for layer in network.layers),
    )


@pytest.fixture(scope="module")
def reference():
    return {
        strategy: simulate(small_cnn_spec(), strategy=strategy)
        for strategy in STRATEGIES
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("backend", sorted(available_backends()))
class TestParityMatrix:
    def test_tier_agrees_with_streaming(self, backend, strategy, reference):
        report = simulate(small_cnn_spec(), backend=backend, strategy=strategy)
        assert report.backend == backend
        assert report.strategy == strategy
        ref = reference[strategy]
        # Identical plan: the tiers are differenced on the same mapping.
        assert [r.segment.total_nodes for r in report.runs] == [
            r.segment.total_nodes for r in ref.runs
        ]
        lo, hi = DEFAULT_ENVELOPE.get(backend, (1.0, 1.0))
        ratio = report.total_cycles / ref.total_cycles
        assert lo <= ratio <= hi, f"{backend}/{strategy}: ratio {ratio:.4f}"

    def test_charges_are_positive_and_complete(self, backend, strategy):
        report = simulate(small_cnn_spec(), backend=backend, strategy=strategy)
        assert report.total_cycles > 0
        assert report.energy.total > 0
        for run in report.runs:
            assert run.compute_cycles > 0
            assert run.steady_interval > 0


class TestTierEvidence:
    def test_event_tier_reports_event_counts(self):
        report = simulate(small_cnn_spec(), backend="event")
        assert all(run.events_processed > 0 for run in report.runs)

    def test_cycle_tier_verifies_numerics(self):
        report = simulate(small_cnn_spec(), backend="cycle")
        for run in report.runs:
            assert run.numerics_verified is True
            assert run.functional_macs > 0
            assert run.checksum is not None

    def test_cycle_tier_checksum_is_seed_stable(self):
        a = simulate(small_cnn_spec(), backend="cycle")
        b = simulate(small_cnn_spec(), backend="cycle")
        assert [r.checksum for r in a.runs] == [r.checksum for r in b.runs]
        c = simulate(
            small_cnn_spec(), backend="cycle", config=SimConfig(seed=1)
        )
        assert [r.checksum for r in c.runs] != [r.checksum for r in a.runs]

    def test_cycle_tier_operands_span_the_layer_precision(self):
        network = small_cnn_spec(h=4, c=4)
        int8 = simulate(network, backend="cycle")
        wide = simulate(at_precision(network, 16), backend="cycle")
        assert [r.checksum for r in wide.runs] != [r.checksum for r in int8.runs]
        assert all(run.numerics_verified for run in wide.runs)

    def test_analytic_matches_streaming_on_single_layer_segments(self):
        # With one layer per segment there is no pipelining for the
        # closed form to miss — the two tiers must coincide exactly.
        analytic = simulate(
            small_cnn_spec(), backend="analytic", strategy="single-layer"
        )
        streaming = simulate(
            small_cnn_spec(), backend="streaming", strategy="single-layer"
        )
        assert analytic.total_cycles == streaming.total_cycles


class TestPaddingOnlyWindows:
    """A producer window that covers only padding is a typed error.

    The 1x1 stride-3 pad-2 producer reads only row and column 1 of its
    4x4 ifmap.  The windows of its last ofmap row and column cover only
    padding, so no streamed ifmap vector finalizes the pixels a 3x3
    consumer in the same segment needs there.
    """

    NETWORK = NetworkSpec(
        name="padding-only",
        layers=(
            ConvLayerSpec(
                1, "p", h=4, w=4, c=16, m=16, r=1, s=1, stride=3, padding=2
            ),
            ConvLayerSpec(2, "c", h=3, w=3, c=16, m=16),
        ),
    )

    @pytest.mark.parametrize("backend", ["streaming", "event"])
    def test_queueing_tier_rejects_the_segment(self, backend):
        # The greedy strategy puts both layers in one segment (it used to
        # raise a bare IndexError here).
        with pytest.raises(SimulationError, match="'c' .* 'p' .*only padding"):
            simulate(self.NETWORK, backend=backend, strategy="greedy")


class TestLayersThatStreamNothing:
    """A layer whose every window along one axis covers only padding
    streams no vector, and every tier rejects it with one MappingError.

    Its 1x1 stride-3 pad-2 windows on a 1x1 ifmap start at -2 and 1, so
    none reads pixel 0.  The consumer case puts it behind a valid 1x1
    producer whose ofmap it reads (the dependence map used to raise a bare
    IndexError there).
    """

    LAYER = dict(h=1, w=1, c=16, m=16, r=1, s=1, stride=3, padding=2)
    ALONE = NetworkSpec(name="z", layers=(ConvLayerSpec(1, "z", **LAYER),))
    CONSUMER = NetworkSpec(
        name="z-consumer",
        layers=(
            ConvLayerSpec(1, "p", h=1, w=1, c=16, m=16, r=1, s=1, padding=0),
            ConvLayerSpec(2, "z", **LAYER),
        ),
    )

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    @pytest.mark.parametrize("network", [ALONE, CONSUMER], ids=["alone", "consumer"])
    def test_every_tier_raises_a_mapping_error(self, backend, network):
        # The analytic and cycle tiers used to report 43.6 cycles, the
        # streaming tier a bare IndexError and the event tier a bare
        # ValueError.
        with pytest.raises(MappingError, match="z: .*streams no ifmap vector"):
            simulate(network, backend=backend)


class TestBatchSemantics:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_extra_samples_ride_the_steady_pipeline(self, backend):
        one = simulate(small_cnn_spec(), backend=backend, batch=1)
        four = simulate(small_cnn_spec(), backend=backend, batch=4)
        fills = sum(run.steady_interval for run in one.runs)
        stagings = sum(run.staging_cycles for run in one.runs)
        assert four.total_cycles == pytest.approx(
            one.total_cycles + 3 * (fills + stagings)
        )
