"""The tier table: discovery and lookup by name."""

import pytest

from repro.errors import BackendError, MappingError
from repro.nn.workloads import small_cnn_spec
from repro.sim import DEFAULT_BACKEND, available_backends, get_backend, simulate


class TestDiscovery:
    def test_all_four_tiers_registered(self):
        assert available_backends() == ("analytic", "cycle", "event", "streaming")

    def test_default_is_streaming(self):
        assert DEFAULT_BACKEND == "streaming"
        assert DEFAULT_BACKEND in available_backends()

    def test_lookup_returns_named_backend(self):
        for name in available_backends():
            backend = get_backend(name)
            assert backend.name == name

    def test_unknown_name_lists_choices(self):
        with pytest.raises(BackendError, match="analytic"):
            get_backend("spice")

    def test_simulate_rejects_unknown_backend_before_mapping(self):
        with pytest.raises(BackendError):
            simulate(small_cnn_spec(), backend="spice")

    def test_simulate_rejects_bad_batch(self):
        with pytest.raises(MappingError):
            simulate(small_cnn_spec(), batch=0)
