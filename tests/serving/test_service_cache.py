"""ServiceModel memo cache: LRU bound, per-tier keys, telemetry counters."""

import pytest

from repro import telemetry
from repro.core.multi_dnn import MultiDNNScheduler
from repro.nn.workloads import small_cnn_spec
from repro.serving import ServiceModel


class _CountingScheduler(MultiDNNScheduler):
    """Counts simulate_partition calls so hits/misses are observable
    without telemetry."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def simulate_partition(self, network, cores, **kwargs):
        self.calls += 1
        return super().simulate_partition(network, cores, **kwargs)


@pytest.fixture
def scheduler():
    return _CountingScheduler()


class TestLRUBound:
    def test_repeat_lookup_hits_the_cache(self, scheduler):
        service = ServiceModel(scheduler)
        network = small_cnn_spec()
        first = service.latency_ms(network, 60)
        assert scheduler.calls == 1
        assert service.latency_ms(network, 60) == first
        assert scheduler.calls == 1

    def test_cache_never_exceeds_its_bound(self, scheduler):
        service = ServiceModel(scheduler, cache_size=2)
        network = small_cnn_spec()
        for cores in (50, 60, 70, 80):
            service.latency_ms(network, cores)
            assert len(service._runs) <= 2
        assert scheduler.calls == 4

    def test_eviction_is_least_recently_used(self, scheduler):
        service = ServiceModel(scheduler, cache_size=2)
        network = small_cnn_spec()
        service.latency_ms(network, 50)
        service.latency_ms(network, 60)
        service.latency_ms(network, 50)   # refresh 50 -> 60 is now LRU
        service.latency_ms(network, 70)   # evicts 60
        assert scheduler.calls == 3
        service.latency_ms(network, 50)   # still cached
        assert scheduler.calls == 3
        service.latency_ms(network, 60)   # evicted: must re-simulate
        assert scheduler.calls == 4

    def test_tiers_are_cached_separately(self, scheduler):
        service = ServiceModel(scheduler)
        network = small_cnn_spec()
        authoritative = service.latency_ms(network, 60)
        estimate = service.partition_run(network, 60, backend="analytic")
        assert scheduler.calls == 2
        assert len(service._runs) == 2
        # The analytic closed form is a conservative upper bound on the
        # streaming tier (see repro.sim.xcheck) — never cheaper.
        assert estimate.backend == "analytic"
        assert estimate.latency_ms >= authoritative
        # Both lookups repeat from cache.
        service.latency_ms(network, 60)
        assert service.partition_run(network, 60, backend="analytic") is estimate
        assert scheduler.calls == 2


class TestTelemetryCounters:
    def test_hit_and_miss_counters(self, scheduler):
        service = ServiceModel(scheduler)
        network = small_cnn_spec()
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            service.latency_ms(network, 60)       # miss
            service.latency_ms(network, 60)       # hit
            service.partition_run(network, 60, backend="analytic")  # miss
            service.latency_ms(network, 60)       # hit
        assert sink.registry.counter("serving/service/cache_miss").value == 2
        assert sink.registry.counter("serving/service/cache_hit").value == 2

    def test_no_sink_no_counters(self, scheduler):
        # The default NullSink must stay untouched (enabled=False guard).
        service = ServiceModel(scheduler)
        service.latency_ms(small_cnn_spec(), 60)
        assert not telemetry.current().enabled
