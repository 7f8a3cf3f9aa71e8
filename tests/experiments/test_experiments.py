"""The paper's evaluation claims (Sec. 6 and the abstract), asserted on
the runner's own results.

Every claim test reads the memoized default run of one experiment (the
``experiment`` fixture in ``tests/conftest.py``): the same
:class:`~repro.experiments.report.ExperimentResult` that
``maicc-experiments`` prints and EXPERIMENTS.md holds.  Each numeric
paper target has one band, with the paper's number in a comment beside
it.  Five of them (4.3x, 0.20x and 1.8x over CPU/GPU, the 2.3x node
speedup, the 71% DRAM share) are also asserted under their abstract and
Sec. 6 names in ``tests/integration/test_paper_claims.py``, on the same
runs and at the same bands.
"""

import json

import pytest

from repro.cmem.geometry import COLS, ROWS, SLICES
from repro.core.chip import ChipConfig
from repro.experiments import figure9, table4, table6
from repro.experiments.report import format_table
from repro.experiments.runner import REGISTRY, run_experiment
from repro.riscv.memory import LOCAL_DMEM_SIZE


@pytest.fixture
def t4(experiment):
    return experiment("table4")


@pytest.fixture
def t6(experiment):
    return experiment("table6")


@pytest.fixture
def t7(experiment):
    return experiment("table7")


class TestTable4:
    """The MAICC node's accumulators are checked against NumPy inside
    ``table4.run``, so a diverging node fails every test here.  The
    calibrated scalar and Neural Cache cycle counts are pinned to the
    paper's in ``tests/baselines``."""

    def test_three_nodes_compared(self, t4):
        assert t4.column("node") == ["Scalar core", "MAICC node", "Neural Cache"]

    def test_maicc_beats_neural_cache(self, t4):
        maicc = t4.row_by("node", "MAICC node")
        cache = t4.row_by("node", "Neural Cache")
        assert 1.8 < cache["cycles"] / maicc["cycles"] < 4.5  # paper: 2.3x
        assert maicc["memory_kb"] == cache["memory_kb"] // 2  # half the memory

    def test_maicc_orders_faster_than_scalar(self, t4):
        scalar = t4.row_by("node", "Scalar core")
        maicc = t4.row_by("node", "MAICC node")
        assert scalar["cycles"] / maicc["cycles"] > 100  # paper: ~210x

    def test_energy_ordering(self, t4):
        scalar = t4.row_by("node", "Scalar core")
        maicc = t4.row_by("node", "MAICC node")
        cache = t4.row_by("node", "Neural Cache")
        assert maicc["energy_j"] < cache["energy_j"] < scalar["energy_j"]


class TestTable5:
    """Fourteen pipeline runs of the Table 4 workload; ``table5.run``
    checks every run's accumulators against NumPy."""

    @pytest.fixture
    def cycles(self, experiment):
        return {
            (row["queue"], row["wb_ports"], row["static"]): row["cycles"]
            for row in experiment("table5").rows
        }

    def test_fourteen_configurations(self, cycles):
        assert len(cycles) == 14

    def test_deeper_queues_never_hurt_and_saturate(self, cycles):
        assert cycles[(0, 1, False)] >= cycles[(1, 1, False)] >= cycles[(2, 1, False)]
        assert cycles[(2, 1, False)] == pytest.approx(cycles[(4, 1, False)], rel=0.02)

    def test_second_writeback_port_helps(self, cycles):
        assert cycles[(2, 2, False)] <= cycles[(2, 1, False)]  # paper: ~2%

    def test_static_scheduling_beats_every_dynamic_configuration(self, cycles):
        best_dynamic = min(v for (_, _, static), v in cycles.items() if not static)
        best_static = min(v for (_, _, static), v in cycles.items() if static)
        assert best_static < 0.95 * best_dynamic  # paper: ~16%


class TestTable6:
    def test_all_twenty_layers(self, t6):
        assert len(t6.rows) == 20

    def test_total_latency_ordering_in_notes(self, t6):
        h = t6.raw["heuristic"].latency_ms
        g = t6.raw["greedy"].latency_ms
        s = t6.raw["single-layer"].latency_ms
        assert h < g < s
        assert 1.4 < g / h < 3.5  # paper: 2.03
        assert 2.5 < s / h < 7.0  # paper: 4.69

    def test_greedy_counts_match_paper_exactly(self, t6):
        matches = sum(
            1 for row in t6.rows if row["greedy_nodes"] == row["paper_greedy"]
        )
        assert matches >= 15  # 15 of 20 layers match the paper's counts

    def test_heuristic_latency_near_paper(self, t6):
        assert t6.raw["heuristic"].latency_ms == pytest.approx(5.138, rel=0.25)

    def test_paper_segmentation_reproduced(self, t6):
        """Sec. 6.2's segment boundaries, for heuristic and greedy."""

        def segments(strategy):
            return [
                [spec.index for spec in run.segment.layers]
                for run in t6.raw[strategy].runs
            ]

        heuristic = segments("heuristic")
        assert heuristic[:3] == [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11], [12, 13, 14, 15]]
        assert heuristic[3:] == [[16], [17], [18], [19], [20]]
        greedy = segments("greedy")
        assert greedy[0] == list(range(1, 13))
        assert greedy[1] == [13, 14, 15]


def platforms(t7):
    """The MAICC, CPU and GPU rows of Table 7."""
    by = {row["platform"]: row for row in t7.rows}
    return by["MAICC (210 cores)"], by["Intel i9-13900K"], by["NVIDIA RTX 4090"]


class TestTable7:
    def test_efficiency_ordering(self, t7):
        """MAICC > GPU > CPU in throughput/W (the headline claim)."""
        maicc, cpu, gpu = platforms(t7)
        assert maicc["thr_per_w"] > gpu["thr_per_w"] > cpu["thr_per_w"]

    def test_speedup_vs_cpu_near_4x(self, t7):
        maicc, cpu, _ = platforms(t7)
        ratio = maicc["throughput"] / cpu["throughput"]
        assert ratio == pytest.approx(4.3, rel=0.3)  # paper: 4.3x

    def test_efficiency_vs_cpu_near_31_6x(self, t7):
        maicc, cpu, _ = platforms(t7)
        assert 20 < maicc["thr_per_w"] / cpu["thr_per_w"] < 45  # paper: 31.6x

    def test_gpu_keeps_raw_throughput_lead(self, t7):
        maicc, _, gpu = platforms(t7)
        assert 0.1 < maicc["throughput"] / gpu["throughput"] < 0.35  # paper: 0.20x

    def test_efficiency_vs_gpu_near_1_8x(self, t7):
        maicc, _, gpu = platforms(t7)
        assert 1.2 < maicc["thr_per_w"] / gpu["thr_per_w"] < 2.6  # paper: 1.8x

    def test_latency_near_paper(self, t7):
        maicc, _, _ = platforms(t7)
        assert maicc["latency_ms"] == pytest.approx(5.13, rel=0.25)

    def test_power_near_paper(self, t7):
        maicc, _, _ = platforms(t7)
        assert maicc["power_w"] == pytest.approx(24.67, rel=0.15)

    def test_more_efficient_than_neural_cache(self, t7):
        """Sec. 6.3: 50.03 vs Neural Cache's 22.90 GFLOPS/W, DRAM excluded."""
        assert t7.raw["maicc"].gops_per_watt(include_dram=False) > 22.90


class TestFigures:
    @pytest.fixture
    def f9(self, experiment):
        return {row["strategy"]: row for row in experiment("figure9").rows}

    def test_figure9_send_cost_does_not_depend_on_the_mapping(self, f9):
        assert set(f9) == {"single-layer", "greedy", "heuristic"}
        assert len({row["send_ifmap"] for row in f9.values()}) == 1

    def test_figure9_compute_scales_inversely_with_nodes(self, f9):
        assert f9["greedy"]["nodes"] < f9["heuristic"]["nodes"]
        assert f9["greedy"]["compute"] > f9["heuristic"]["compute"]

    def test_figure9_waiting_dominates_greedy(self, f9):
        assert f9["greedy"]["wait_ifmap"] > f9["heuristic"]["wait_ifmap"]
        assert f9["greedy"]["wait_ifmap"] > f9["greedy"]["compute"]

    @pytest.mark.parametrize("backend", ["analytic", "event"])
    def test_figure9_does_not_depend_on_the_tier(self, backend, experiment):
        """The breakdown is defined by the tandem-queue model, whichever
        tier produced the run totals."""
        assert figure9.run(backend=backend).rows == experiment("figure9").rows

    def test_figure10_fractions(self, experiment):
        rows = {row["block"]: row for row in experiment("figure10").rows}
        assert rows["cmem"]["area_fraction"] == pytest.approx(0.65, abs=0.03)
        assert rows["core"]["area_fraction"] == pytest.approx(0.11, abs=0.02)
        assert rows["local_mem"]["area_fraction"] == pytest.approx(0.10, abs=0.02)
        assert rows["noc"]["area_fraction"] == pytest.approx(0.09, abs=0.02)
        assert rows["llc"]["area_fraction"] == pytest.approx(0.05, abs=0.02)

        assert rows["dram"]["energy_fraction"] == pytest.approx(0.71, abs=0.08)
        assert rows["cmem"]["energy_fraction"] == pytest.approx(0.11, abs=0.05)
        assert rows["noc"]["energy_fraction"] == pytest.approx(0.11, abs=0.05)

    def test_figure10_total_area_28mm2(self, experiment):
        assert experiment("figure10").raw["area"].total == pytest.approx(28.0, rel=0.05)


class TestChip:
    def test_about_4mb_on_chip_memory(self):
        """Abstract: 210 x (16 KB CMem + 4 KB data memory), about 4 MB."""
        node_bytes = SLICES * ROWS * COLS // 8 + LOCAL_DMEM_SIZE
        kb = ChipConfig().compute_tiles * node_bytes / 1024
        assert 3.9 * 1024 <= kb <= 4.4 * 1024


class TestRunner:
    def test_registry_covers_all_experiments(self):
        assert {
            "table4", "table5", "table6", "table7", "figure9", "figure10",
        } <= set(REGISTRY)

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            run_experiment("table99")

    def test_formatting_smoke(self, t4):
        assert "Table 4" in format_table(t4)


class TestParallelPins:
    """Sharding an experiment across workers must not change one byte.

    The drivers are thin SweepSpec/grid instances over the shared sweep
    executor; the executor's order-preserving fork pool is what makes
    ``workers=N`` a pure throughput knob.
    """

    def test_table4_parallel_byte_identical(self, t4):
        parallel = table4.run(workers=2)
        assert format_table(parallel) == format_table(t4)

    def test_table6_parallel_byte_identical(self, t6):
        parallel = table6.run(workers=2)
        assert format_table(parallel) == format_table(t6)

    def test_runner_forwards_workers(self, t6):
        result = run_experiment("table6", workers=2)
        assert format_table(result) == format_table(t6)


class TestAsDict:
    """The JSON-safe bridge between the pinned tables and obs tooling."""

    def test_as_dict_is_json_serializable_and_complete(self, t4):
        doc = t4.as_dict()
        assert set(doc) == {"experiment", "title", "columns", "rows", "notes"}
        assert doc["experiment"] == "table4"
        assert doc["columns"] == t4.columns
        assert len(doc["rows"]) == len(t4.rows)
        json.dumps(doc)  # raw (live simulation objects) must be excluded

    def test_as_dict_is_deterministic_and_detached(self, t4):
        a, b = t4.as_dict(), t4.as_dict()
        assert a == b
        a["rows"][0]["node"] = "mutated"
        assert t4.rows[0].get("node") != "mutated"
