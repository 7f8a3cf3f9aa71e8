"""Experiment drivers regenerate the paper's tables with the right shape.

Table 5 is exercised in the benchmark suite (it sweeps 14 cycle-level
runs); here it is covered by a reduced smoke check only.
"""

import json

import pytest

from repro.experiments import figure9, figure10, table4, table6, table7
from repro.experiments.report import format_table
from repro.experiments.runner import REGISTRY, run_experiment


@pytest.fixture(scope="module")
def t4():
    return table4.run()


@pytest.fixture(scope="module")
def t6():
    return table6.run()


@pytest.fixture(scope="module")
def t7():
    return table7.run()


class TestTable4:
    def test_three_nodes_compared(self, t4):
        assert t4.column("node") == ["Scalar core", "MAICC node", "Neural Cache"]

    def test_maicc_beats_neural_cache(self, t4):
        maicc = t4.row_by("node", "MAICC node")
        cache = t4.row_by("node", "Neural Cache")
        # Paper: 2.3x performance at half the memory.
        assert cache["cycles"] / maicc["cycles"] > 1.5
        assert maicc["memory_kb"] < cache["memory_kb"]

    def test_maicc_orders_faster_than_scalar(self, t4):
        scalar = t4.row_by("node", "Scalar core")
        maicc = t4.row_by("node", "MAICC node")
        assert scalar["cycles"] / maicc["cycles"] > 100

    def test_energy_ordering(self, t4):
        scalar = t4.row_by("node", "Scalar core")
        maicc = t4.row_by("node", "MAICC node")
        cache = t4.row_by("node", "Neural Cache")
        assert maicc["energy_j"] < cache["energy_j"] < scalar["energy_j"]


class TestTable6:
    def test_all_twenty_layers(self, t6):
        assert len(t6.rows) == 20

    def test_total_latency_ordering_in_notes(self, t6):
        runs = t6.raw
        assert (
            runs["heuristic"].latency_ms
            < runs["greedy"].latency_ms
            < runs["single-layer"].latency_ms
        )

    def test_greedy_counts_match_paper_exactly(self, t6):
        matches = sum(
            1 for row in t6.rows if row["greedy_nodes"] == row["paper_greedy"]
        )
        assert matches >= 15  # 15 of 20 layers match the paper's counts

    def test_heuristic_latency_near_paper(self, t6):
        assert t6.raw["heuristic"].latency_ms == pytest.approx(5.138, rel=0.25)


class TestTable7:
    def test_efficiency_ordering(self, t7):
        """MAICC > GPU > CPU in throughput/W (the headline claim)."""
        by = {row["platform"]: row for row in t7.rows}
        maicc = by["MAICC (210 cores)"]
        gpu = by["NVIDIA RTX 4090"]
        cpu = by["Intel i9-13900K"]
        assert maicc["thr_per_w"] > gpu["thr_per_w"] > cpu["thr_per_w"]

    def test_speedup_vs_cpu_near_4x(self, t7):
        by = {row["platform"]: row for row in t7.rows}
        ratio = by["MAICC (210 cores)"]["throughput"] / by["Intel i9-13900K"]["throughput"]
        assert ratio == pytest.approx(4.3, rel=0.3)

    def test_gpu_keeps_raw_throughput_lead(self, t7):
        by = {row["platform"]: row for row in t7.rows}
        assert by["NVIDIA RTX 4090"]["throughput"] > by["MAICC (210 cores)"]["throughput"]

    def test_efficiency_vs_gpu_near_1_8x(self, t7):
        by = {row["platform"]: row for row in t7.rows}
        ratio = by["MAICC (210 cores)"]["thr_per_w"] / by["NVIDIA RTX 4090"]["thr_per_w"]
        assert 1.2 < ratio < 2.6  # paper: 1.8x


class TestFigures:
    def test_figure9_waiting_dominates_greedy(self):
        result = figure9.run()
        rows = {row["strategy"]: row for row in result.rows}
        assert rows["greedy"]["wait_ifmap"] > rows["heuristic"]["wait_ifmap"]
        assert rows["greedy"]["wait_ifmap"] > rows["greedy"]["compute"]

    @pytest.mark.parametrize("backend", ["analytic", "event"])
    def test_figure9_does_not_depend_on_the_tier(self, backend):
        """The breakdown is defined by the tandem-queue model, whichever
        tier produced the run totals."""
        assert figure9.run(backend=backend).rows == figure9.run().rows

    def test_figure10_fractions(self):
        result = figure10.run()
        rows = {row["block"]: row for row in result.rows}
        assert rows["cmem"]["area_fraction"] == pytest.approx(0.65, abs=0.03)
        assert rows["dram"]["energy_fraction"] > 0.5


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
