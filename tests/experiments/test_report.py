"""Result container and table renderer."""

import pytest

from repro.experiments.report import ExperimentResult, format_table


@pytest.fixture
def result():
    r = ExperimentResult(
        experiment="demo", title="Demo", columns=["name", "value"],
    )
    r.add_row(name="a", value=1.5)
    r.add_row(name="b", value=2_000_000.0)
    r.notes.append("a note")
    return r


class TestExperimentResult:
    def test_column_extraction(self, result):
        assert result.column("name") == ["a", "b"]

    def test_row_lookup(self, result):
        assert result.row_by("name", "b")["value"] == 2_000_000.0
        with pytest.raises(KeyError):
            result.row_by("name", "zzz")


class TestFormatting:
    def test_renders_header_rows_notes(self, result):
        text = format_table(result)
        assert "Demo" in text
        assert "a note" in text
        assert "1.5" in text

    def test_large_numbers_in_scientific(self, result):
        assert "2e+06" in format_table(result)

    def test_empty_table(self):
        r = ExperimentResult("e", "Empty", ["x"])
        assert "Empty" in format_table(r)

    def test_missing_cells_blank(self):
        r = ExperimentResult("e", "T", ["x", "y"])
        r.add_row(x=1)
        assert format_table(r)

    def test_no_line_ends_in_whitespace(self, result):
        result.add_row(name="a long name", value="")
        lines = format_table(result).splitlines()
        assert lines[2].startswith("name         value")
        assert all(line == line.rstrip() for line in lines)
