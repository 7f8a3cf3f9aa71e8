"""Package-level contracts: exports, errors, version, CLI."""

import importlib
import pkgutil

import pytest

import repro
from repro import errors


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_module_exports_resolve(self):
        """Each ``repro.*`` module defines every name its ``__all__`` lists."""
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{info.name}.{name}"

    def test_version(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_quickstart_snippet(self):
        """The README's four-line quickstart works verbatim."""
        from repro import resnet18_spec, simulate

        result = simulate(resnet18_spec())
        assert result.latency_ms > 0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_specific_parentage(self):
        assert issubclass(errors.SliceIndexError, errors.CMemError)
        assert issubclass(errors.RowIndexError, errors.CMemError)
        assert issubclass(errors.AlignmentError, errors.MemoryMapError)
        assert issubclass(errors.CapacityError, errors.MappingError)
        assert issubclass(errors.PlacementError, errors.MappingError)
        assert issubclass(errors.ShapeError, errors.GraphError)

    def test_one_base_catches_everything(self):
        from repro.mapping.capacity import CapacityModel
        from repro.nn.workloads import ConvLayerSpec

        with pytest.raises(errors.ReproError):
            CapacityModel().vector_slots_per_slice(64)


class TestCLI:
    def test_list_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table4", "table5", "table6", "table7", "figure9", "figure10"):
            assert name in out

    def test_single_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["figure10"]) == 0
        assert "Figure 10" in capsys.readouterr().out


class TestPlacementRendering:
    def test_render_marks_dcs_and_layers(self):
        from repro.core.perfmodel import PerformanceModel
        from repro.mapping.placement import zigzag_placement
        from repro.mapping.segmentation import HeuristicStrategy
        from repro.nn.workloads import resnet18_spec

        plan = HeuristicStrategy().plan(
            resnet18_spec(), PerformanceModel().layer_time_fn()
        )
        text = zigzag_placement(plan.segments[0]).render()
        assert text.count("D") == len(plan.segments[0].layers)
        assert "a" in text and "b" in text
