"""Unit tests for the text report rendering."""

import pytest

from repro.core import (analyze, render_activity_view_table,
                        render_breakdown_table, render_dispersion_table,
                        render_full_report, render_region_view_table,
                        render_summary, report_to_dict)
from repro.viz import format_float_table, format_table


class TestTableFormatter:
    def test_alignment(self):
        text = format_table(["name", "value"], [["a", "1"], ["bb", "22"]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[1].startswith("----")
        assert lines[2].endswith("1")

    def test_title(self):
        text = format_table(["x"], [["1"]], title="caption")
        assert text.splitlines()[0] == "caption"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_float_formatting(self):
        text = format_float_table(["x"], [[0.123456789]], precision=3)
        assert "0.123" in text and "0.1234" not in text


class TestPaperTables:
    @pytest.fixture(scope="class")
    def result(self, paper_measurements):
        return analyze(paper_measurements)

    @pytest.fixture(scope="class")
    def document(self, result):
        return report_to_dict(result)

    def test_table1_digits(self, document):
        text = render_breakdown_table(document)
        assert "19.051" in text      # loop 1 overall
        assert "12.24" in text       # loop 1 computation
        assert "0.061" in text       # loop 1 synchronization
        assert "0.692" in text       # loop 6 overall

    def test_table1_dashes(self, document):
        text = render_breakdown_table(document)
        loop3 = [line for line in text.splitlines()
                 if line.startswith("loop 3")][0]
        # loop 3 performs no collective and no synchronization.
        assert loop3.rstrip().endswith("-")

    def test_table2_digits(self, document):
        text = render_dispersion_table(document)
        for printed in ("0.03674", "0.12870", "0.30571", "0.23200",
                        "0.01138"):
            assert printed in text

    def test_table3_digits(self, document):
        text = render_activity_view_table(document)
        assert "0.01904" in text
        # The scaled index matches the paper to one unit in the last
        # printed digit (the paper's own values carry rounding).
        assert ("0.01132" in text) or ("0.01131" in text)

    def test_table4_digits(self, document):
        text = render_region_view_table(document)
        assert "0.04809" in text
        assert ("0.01311" in text) or ("0.01310" in text)

    def test_summary_narrative(self, document):
        text = render_summary(document)
        assert "processor 1" in text
        assert "processor 2" in text
        assert "loop 1" in text
        assert "synchronization" in text

    def test_full_report_contains_everything(self, result):
        text = render_full_report(result)
        for piece in ("Wall clock time", "Indices of dispersion",
                      "Activity view summary", "Code region view summary",
                      "Top-down analysis summary"):
            assert piece in text
