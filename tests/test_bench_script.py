"""The ``scripts/bench.py`` harness: its case registry, gate and op counter.

Loads the script as a module and runs none of its cases; the gate is
checked on synthetic ``BENCH.json`` documents.
"""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.mapping.tiling import tile_network
from repro.sim import SimConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def green_doc() -> dict:
    """A BENCH.json-shaped document in which every gate passes."""
    return {
        "meta": {"python": "3.11", "numpy": "2.0", "machine": "x86_64", "cpu_count": 2},
        "macc": {"mac": {"speedup": 40.0}},
        "telemetry": {"counters": {"core/0/cmem/macs": 1442}, "trace_events": 3609},
        "serving": {"serving_batched": {"throughput_gain": 1.66}},
        "backends": {
            "resnet18": {
                "event": {"wall_s": 0.05, "budget_s": 0.6, "within_budget": True},
                "cycle": {"wall_s": 0.6, "budget_s": 2.0, "within_budget": True},
            },
            "small_cnn": {
                "cycle": {"wall_s": 0.02, "budget_s": 1.5, "within_budget": True},
            },
            "op_count": {
                "calls": {"streaming": {"full": 4130, "half": 4122}},
                "ratios": {"streaming": 1.002, "event": 0.991},
                "budget_ratio": 1.1, "within_budget": True,
            },
            "pass_op_count": {
                "calls": {"analytic": {"20": 13560, "40": 17620}},
                "calls_per_pass": {"analytic": 203.0, "event": 203.0},
                "budget_calls_per_pass": 300, "within_budget": True,
            },
        },
        "obs": {
            "attribution": {
                "overhead_calls": 3320, "budget_calls": 4495, "within_budget": True,
            },
        },
        "fleet": {
            "scales": {
                chips: {
                    "calls_per_request": 89.0, "wall_s_per_run": 0.1,
                    "budget_s": 3.5, "within_budget": True,
                }
                for chips in ("1", "4", "16")
            },
            "op_count": {
                "chips": [4, 16], "ratio": 0.997, "budget_ratio": 1.1,
                "within_budget": True,
            },
        },
        "dse": {
            "identical_bytes": True,
            "scales": {
                workers: {"executor": "serial", "budget_s": 2.5, "within_budget": True}
                for workers in ("0", "4")
            },
        },
    }


def test_cases_registry(bench):
    assert list(bench.CASES) == [
        "macc", "telemetry", "serving", "backends", "obs", "fleet", "dse",
    ]
    gated = {name for name, case in bench.CASES.items() if case.check}
    assert gated == {"serving", "backends", "obs", "fleet", "dse"}


def test_partition_op_gate_counts_a_short_elastic_window(bench):
    assert bench.PARTITION_WINDOW_MS == 200.0
    assert bench.PARTITION_OP_BUDGET == 30_000


def test_fleet_op_gate_compares_four_and_sixteen_chips(bench):
    assert bench.FLEET_OP_CHIPS == (4, 16)
    assert set(bench.FLEET_OP_CHIPS) <= set(bench.FLEET_BUDGETS)
    assert bench.FLEET_OP_BUDGET == 1.10


def test_backend_op_gate_covers_the_queueing_tiers(bench):
    assert bench.BACKEND_OP_TIERS == ("streaming", "event")
    assert bench.BACKEND_OP_BUDGET == 1.10


def test_pass_op_gate_compares_twenty_and_forty_passes(bench):
    config = SimConfig()
    assert bench.PASS_OP_TIERS == ("analytic", "event")
    for passes, m in bench.PASS_OP_M.items():
        tiled = tile_network(bench.tiled_fc(m), config.capacity, config.array_size)
        assert len(tiled) == 1 + passes
    assert list(bench.PASS_OP_M) == [20, 40]
    assert bench.PASS_OP_BUDGET == 300


def test_every_backend_row_is_budgeted(bench):
    tiers = {"analytic", "streaming", "event", "cycle"}
    assert {name: set(rows) for name, rows in bench.BACKEND_BUDGETS.items()} == {
        "resnet18": tiers, "small_cnn": tiers,
    }


def test_all_green_document_has_no_failures(bench):
    assert bench.failures(green_doc()) == []


@pytest.mark.parametrize(
    "path, flag",
    [
        ("backends/small_cnn/cycle", "within_budget"),
        ("backends/op_count", "within_budget"),
        ("backends/pass_op_count", "within_budget"),
        ("obs/attribution", "within_budget"),
        ("fleet/scales/1", "within_budget"),
        ("fleet/op_count", "within_budget"),
        ("dse/scales/4", "within_budget"),
        ("dse", "identical_bytes"),
    ],
)
def test_failures_names_exactly_the_breached_row(bench, path, flag):
    doc = green_doc()
    row = doc
    for key in path.split("/"):
        row = row[key]
    row[flag] = False
    assert bench.failures(doc) == [path]


@dataclass
class First:
    x: int = 0


@dataclass
class Second:
    y: int = 0


def test_op_count_keeps_dataclass_inits_with_colliding_labels(bench):
    labels = {
        (code.co_filename, code.co_firstlineno, code.co_name)
        for code in (First.__init__.__code__, Second.__init__.__code__)
    }
    assert len(labels) == 1  # pstats would merge the two __init__ entries

    def build():
        return [First(), First(), Second(), Second(), Second()]

    def nothing():
        return []

    assert bench.op_count(build) - bench.op_count(nothing) == 5
