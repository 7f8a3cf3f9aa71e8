"""The dse obs report kind: build, validate, render, determinism."""

import pytest

from repro.dse.engine import run_sweep
from repro.dse.spec import SweepSpec
from repro.errors import ObservabilityError
from repro.obs.html import render_html
from repro.obs.report import (
    REPORT_KINDS,
    SCHEMA,
    build_dse_report,
    validate_report,
)


@pytest.fixture(scope="module")
def doc():
    spec = SweepSpec(
        name="report-test", networks=("small_cnn",), backends=("analytic",),
        dram_channels=(16, 32),
    )
    return build_dse_report(run_sweep(spec))


class TestBuild:
    def test_kind_registered(self):
        assert "dse" in REPORT_KINDS

    def test_document_shape(self, doc):
        assert doc["schema"] == SCHEMA
        assert doc["kind"] == "dse"
        assert doc["meta"]["sweep"] == "report-test"
        assert doc["meta"]["points"] == 2
        assert {"points", "pareto", "tables", "baselines"} <= set(doc["dse"])

    def test_validates(self, doc):
        validate_report(doc)


class TestValidate:
    def test_missing_section_rejected(self, doc):
        bad = {k: v for k, v in doc.items() if k != "dse"}
        with pytest.raises(ObservabilityError):
            validate_report(bad)

    def test_pareto_must_reference_known_points(self, doc):
        bad = dict(doc)
        bad["dse"] = dict(doc["dse"])
        bad["dse"]["pareto"] = {"small_cnn/analytic": ["ghost-point"]}
        with pytest.raises(ObservabilityError):
            validate_report(bad)

    def test_tables_must_be_complete(self, doc):
        bad = dict(doc)
        bad["dse"] = dict(doc["dse"])
        bad["dse"]["tables"] = {"latency": []}
        with pytest.raises(ObservabilityError):
            validate_report(bad)


class TestRender:
    def test_html_is_deterministic(self, doc):
        assert render_html(doc) == render_html(doc)

    def test_html_carries_the_panels(self, doc):
        html = render_html(doc)
        assert "design-space exploration report" in html
        assert "Pareto frontier" in html
        assert "Energy by block" in html
        assert "Area by block" in html
        assert "Single-node baselines" in html
        # Self-contained: no scripts, no network fetches.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_block_bars_have_their_own_accessible_names(self, doc):
        html = render_html(doc)
        assert 'aria-label="energy by block stacked bars"' in html
        assert 'aria-label="area by block stacked bars"' in html
        assert "per-chip load" not in html

    def test_every_frontier_point_has_a_marker(self, doc):
        html = render_html(doc)
        frontier = [pid for members in doc["dse"]["pareto"].values()
                    for pid in members]
        for pid in frontier:
            assert pid in html
