"""The sweep engine: statuses, serial==parallel, and the baselines."""

import hashlib
from dataclasses import replace

import pytest

import repro.dse.engine as engine
from repro.core.perfmodel import PerformanceModel
from repro.dse.engine import (
    evaluate_point,
    network_baselines,
    run_sweep,
)
from repro.dse.presets import SWEEPS
from repro.dse.spec import NETWORKS, DesignPoint, SweepSpec
from repro.nn.workloads import ConvLayerSpec, NetworkSpec

#: Three tiers on two chips, one of which (vgg11 on 12x12 with 7 slices)
#: cannot map the network.
MULTI_TIER = SweepSpec(
    name="multi-tier",
    networks=("vgg11",),
    backends=("analytic", "streaming", "event"),
    meshes=((12, 12), (16, 16)),
    cmem_slices=(7,),
)


@pytest.fixture(scope="module")
def smoke():
    return run_sweep(SWEEPS["smoke"])


class TestEvaluatePoint:
    def test_default_point_simulates_ok(self):
        point = DesignPoint(network="small_cnn", backend="analytic")
        result = evaluate_point(point)
        assert result.ok
        assert result.latency_ms > 0
        assert set(result.energy_j) == {"dram", "cmem", "noc", "core", "llc"}
        assert set(result.area_mm2) == {
            "cmem", "core", "local_mem", "noc", "llc"
        }
        assert result.report is None  # keep_report defaults off

    def test_keep_report_attaches_the_run(self):
        point = DesignPoint(network="small_cnn", backend="analytic")
        result = evaluate_point(point, keep_report=True)
        assert result.report is not None
        assert result.report.latency_ms == result.latency_ms

    def test_too_small_machine_is_infeasible_not_fatal(self):
        point = DesignPoint(network="resnet18", backend="analytic",
                            mesh=(3, 4))
        result = evaluate_point(point)
        assert result.status == "infeasible"
        assert not result.ok
        assert result.detail

    def test_layer_that_streams_nothing_is_infeasible(self, monkeypatch):
        # Every window of this 1x1 stride-3 pad-2 layer covers only padding.
        layer = ConvLayerSpec(
            1, "z", h=1, w=1, c=16, m=16, r=1, s=1, stride=3, padding=2
        )
        monkeypatch.setitem(NETWORKS, "z", lambda: NetworkSpec("z", (layer,)))
        result = evaluate_point(DesignPoint(network="z", backend="event"))
        assert result.status == "infeasible"
        assert result.detail.startswith("MappingError: z: ")

    def test_given_plan_skips_planning(self, monkeypatch):
        point = DesignPoint(network="small_cnn", backend="streaming")
        cfg = point.sim_config()
        plan = engine.plan_network(
            engine.tile_network(point.build_network(), cfg.capacity, cfg.array_size),
            cfg.strategy, cfg,
        )
        expected = evaluate_point(point)

        def refuse(*args, **kwargs):
            raise AssertionError("planned although a plan was given")

        monkeypatch.setattr(engine, "plan_network", refuse)
        monkeypatch.setattr(engine, "tile_network", refuse)
        given = evaluate_point(point, plan=plan)
        assert given == expected

    def test_one_dram_channel_is_ok_with_no_findings(self):
        # One channel slows ResNet18's filter streaming but breaks no
        # plan rule: PLAN605 cannot fire for a single resident, whose
        # demand is capped at its filter-load port rate (0.5 B/cycle per
        # channel), under the DRAM bandwidth budget.
        point = DesignPoint(network="resnet18", backend="analytic",
                            dram_channels=1)
        result = evaluate_point(point)
        assert result.status == "ok"
        assert result.findings == ()


class TestRunSweep:
    def test_smoke_sweep_all_ok(self, smoke):
        assert len(smoke.points) == SWEEPS["smoke"].size
        assert all(r.ok for r in smoke.points)

    def test_points_keep_expansion_order(self, smoke):
        expanded = [p.point_id for p in SWEEPS["smoke"].expand()]
        assert [r.point.point_id for r in smoke.points] == expanded

    def test_smoke_sweep_bytes_are_pinned(self, smoke):
        """The smoke sweep crosses every off-default axis (12x12 mesh, 5
        slices, 32 rows, 16 channels), so its artifact pins the area and
        energy the models bill off the paper's chip."""
        digest = hashlib.sha256(smoke.to_json().encode()).hexdigest()
        assert digest == (
            "1544a08260066315d7436495736d9ea2fc8798856594fb49bacd91c91d0d8972"
        )

    def test_three_tier_frontier_sweep_bytes_are_pinned(self):
        """The 81-point sweep of the ``dse-frontier`` benchmark: three
        networks on every tier, nine chips, vgg11's unmappable points
        included.  Its event-tier rows run most of the queueing station
        scans one sweep makes."""
        spec = replace(
            SWEEPS["frontier"],
            networks=("resnet18", "vgg11", "small_cnn"),
            backends=("analytic", "streaming", "event"),
            meshes=((12, 12), (16, 16), (20, 20)),
            cmem_slices=(5, 7, 9),
            dram_channels=(32,),
        )
        assert spec.size == 81
        result = run_sweep(spec, workers=0)
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest == (
            "44b9ad96075f01368ead7f6cad20dfc99e63fd8a74c290564821fc47c5eb8f9d"
        )

    def test_serial_and_parallel_are_byte_identical(self, smoke):
        parallel = run_sweep(SWEEPS["smoke"], workers=4)
        assert parallel.to_json() == smoke.to_json()

    def test_each_chip_is_planned_once(self, monkeypatch):
        spec = SweepSpec(
            name="two-chips", networks=("small_cnn",),
            backends=("analytic", "streaming", "event"),
            meshes=((12, 12), (16, 16)),
        )
        calls = []
        plan_network = engine.plan_network

        def counted(*args, **kwargs):
            calls.append(args)
            return plan_network(*args, **kwargs)

        monkeypatch.setattr(engine, "plan_network", counted)
        result = run_sweep(spec, baselines=False)
        assert len(calls) == 2
        assert all(r.ok for r in result.points)

    def test_multi_tier_sweep_keeps_expansion_order_and_bytes(self):
        serial = run_sweep(MULTI_TIER, baselines=False)
        parallel = run_sweep(MULTI_TIER, workers=2, baselines=False)
        assert parallel.to_json() == serial.to_json()
        assert [r.point for r in serial.points] == MULTI_TIER.expand()
        statuses = {
            (r.point.mesh, r.point.backend): r.status for r in serial.points
        }
        assert {s for (mesh, _), s in statuses.items() if mesh == (12, 12)} == {
            "infeasible"
        }
        assert {s for (mesh, _), s in statuses.items() if mesh == (16, 16)} == {"ok"}

    def test_infeasible_chip_rows_match_unshared_evaluation(self):
        result = run_sweep(MULTI_TIER, baselines=False)
        assert result.points == [evaluate_point(p) for p in MULTI_TIER.expand()]

    def test_failing_chip_is_tiled_once(self, monkeypatch):
        calls = []
        tile_network = engine.tile_network

        def counted(*args, **kwargs):
            calls.append(args)
            return tile_network(*args, **kwargs)

        monkeypatch.setattr(engine, "tile_network", counted)
        result = run_sweep(MULTI_TIER, baselines=False)
        # Two chips of three tiers each; the 12x12 one cannot map vgg11.
        assert len(calls) == 2
        assert [r.status for r in result.points].count("infeasible") == 3

    def test_sweep_evaluates_each_layer_time_once(self, monkeypatch):
        """Chips of one CMem geometry and timing share their Eq. (1)
        times: no (machine, shape, cores) is evaluated twice a sweep."""
        spec = SweepSpec(
            name="shared-times", networks=("small_cnn",), backends=("analytic",),
            meshes=((12, 12), (16, 16)), cmem_slices=(5, 7),
        )
        evaluations = []
        layer_time_fn = PerformanceModel.layer_time_fn

        def recording(model, **kwargs):
            timing = layer_time_fn(model, **kwargs)

            def counted(layer, nodes):
                evaluations.append((model.params, model.capacity, layer.shape, nodes))
                return timing(layer, nodes)

            return counted

        monkeypatch.setattr(PerformanceModel, "layer_time_fn", recording)
        result = run_sweep(spec, baselines=False)
        assert all(r.ok for r in result.points)
        assert len({e[:2] for e in evaluations}) == 2
        assert len(evaluations) == len(set(evaluations))

    def test_kept_reports_of_one_chip_share_the_plan(self):
        spec = SweepSpec(name="t", networks=("small_cnn",),
                         backends=("analytic", "streaming"))
        a, b = run_sweep(spec, keep_reports=True, baselines=False).points
        assert a.report.plan is b.report.plan

    def test_baselines_cover_the_sweep_networks(self, smoke):
        assert set(smoke.baselines) == set(SWEEPS["smoke"].networks)
        for values in smoke.baselines.values():
            assert values["scalar_cycles"] > values["neural_cache_cycles"]
            assert values["total_macs"] > 0

    def test_baselines_can_be_skipped(self):
        spec = SweepSpec(name="t", networks=("small_cnn",),
                         backends=("analytic",))
        result = run_sweep(spec, baselines=False)
        assert result.baselines == {}


class TestNetworkBaselines:
    def test_sorted_and_deduplicated(self):
        out = network_baselines(["small_cnn", "small_cnn"])
        assert list(out) == ["small_cnn"]
