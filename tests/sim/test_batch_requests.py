"""Weight-stationary request batching across the sim backends.

``SimConfig.batch_requests`` streams R whole requests through weights
that stay resident in the CMems, so per-request staging (filter load +
segment switching) is paid once per batch.  Two invariants matter:

* **R=1 is byte-identical** to the historical single-request path on
  every backend — batching is purely additive.
* **R>1 amortizes**: latency per request drops below the single-request
  latency, and ``staging_cycles_per_request`` shrinks by exactly 1/R.
"""

import numpy as np
import pytest

from repro.dse.spec import DesignPoint, SweepSpec
from repro.errors import ConfigurationError, MappingError
from repro.nn.workloads import small_cnn_spec
from repro.sim import SimConfig, simulate

BACKENDS = ("analytic", "streaming", "event", "cycle")


class TestConfigValidation:
    def test_batch_requests_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimConfig(batch_requests=0)

    def test_simulate_rejects_bad_batch_requests(self):
        with pytest.raises(MappingError):
            simulate(small_cnn_spec(), batch_requests=0)

    @pytest.mark.parametrize("backend", ["analytic", "streaming", "event"])
    def test_fractional_batch_is_rejected(self, backend):
        # A batch of 1.5 used to simulate 1.5 x the MACs of one sample.
        with pytest.raises(ConfigurationError, match="batch"):
            simulate(small_cnn_spec(), backend=backend, config=SimConfig(batch=1.5))
        with pytest.raises(ConfigurationError, match="batch"):
            simulate(small_cnn_spec(), backend=backend, batch=1.5)

    def test_fractional_batch_requests_is_rejected(self):
        with pytest.raises(ConfigurationError, match="batch_requests"):
            SimConfig(batch_requests=2.5)
        with pytest.raises(ConfigurationError, match="batch_requests"):
            simulate(small_cnn_spec(), batch_requests=2.5)

    def test_numpy_integers_are_accepted(self):
        cfg = SimConfig(batch=np.int64(2), batch_requests=np.int32(3))
        assert (cfg.batch, cfg.batch_requests) == (2, 3)

    @pytest.mark.parametrize("field", ["batch", "batch_requests"])
    def test_sweep_batch_fields_reach_the_same_check(self, field):
        with pytest.raises(ConfigurationError, match=field):
            DesignPoint(network="small_cnn", backend="analytic", **{field: 1.5})
        with pytest.raises(ConfigurationError, match=field):
            SweepSpec(name="t", networks=("small_cnn",), **{field: 2.5}).expand()

    def test_with_run_override(self):
        cfg = SimConfig().with_run(batch_requests=4)
        assert cfg.batch_requests == 4
        assert SimConfig(batch_requests=4).with_run(strategy="greedy").batch_requests == 4


class TestSingleRequestIdentity:
    """batch_requests=1 must not perturb any backend's report."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_default_equals_explicit_r1(self, backend):
        network = small_cnn_spec()
        base = simulate(network, backend=backend)
        explicit = simulate(network, backend=backend, batch_requests=1)
        assert base.total_cycles == explicit.total_cycles
        assert base.latency_ms == explicit.latency_ms
        assert base.energy.total == explicit.energy.total
        assert base.batch_requests == 1
        assert explicit.batch_requests == 1


class TestAmortization:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_per_request_latency_improves(self, backend):
        network = small_cnn_spec()
        single = simulate(network, backend=backend)
        batched = simulate(network, backend=backend, batch_requests=8)
        assert batched.batch_requests == 8
        # The batch takes longer than one request but much less than 8.
        assert batched.total_cycles > single.total_cycles
        assert batched.latency_per_request_ms < single.latency_ms
        # Staging amortizes exactly 1/R: the absolute staging cycles are
        # a property of the plan, not of how many requests share them.
        assert batched.staging_cycles_per_request == pytest.approx(
            single.staging_cycles_per_request / 8
        )

    def test_throughput_scales_with_requests(self):
        network = small_cnn_spec()
        single = simulate(network, backend="event")
        batched = simulate(network, backend="event", batch_requests=8)
        assert batched.throughput_samples_s > single.throughput_samples_s

    def test_report_dict_carries_batching_fields(self):
        report = simulate(
            small_cnn_spec(), backend="streaming", batch_requests=4
        )
        d = report.as_dict()
        assert d["batch_requests"] == 4
        assert d["latency_per_request_ms"] == report.latency_per_request_ms
        assert d["staging_cycles_per_request"] == (
            report.staging_cycles_per_request
        )

    def test_queueing_tiers_simulate_every_request(self):
        """Streaming/event simulate all R requests rather than
        extrapolating, so their batched latency reflects real pipeline
        overlap — it must stay at or below R back-to-back requests."""
        network = small_cnn_spec()
        for backend in ("streaming", "event"):
            single = simulate(network, backend=backend)
            batched = simulate(network, backend=backend, batch_requests=4)
            assert batched.total_cycles <= 4 * single.total_cycles
