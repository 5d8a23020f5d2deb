"""Tests for tables, plots and metric helpers."""

import pytest

from repro.analysis import (
    compare,
    format_value,
    plot_series,
    plot_speedup_curves,
    render_table,
)


class TestTables:
    def test_alignment_and_content(self):
        out = render_table(
            ["name", "cores", "speedup"],
            [["a", 1, 1.0], ["bench-x", 256, 142.71]],
            title="Fig. X",
        )
        lines = out.splitlines()
        assert lines[0] == "Fig. X"
        assert "name" in lines[1] and "speedup" in lines[1]
        assert "142.7" in out
        # All rows same width.
        widths = {len(l) for l in lines[1:]}
        assert len(widths) <= 2  # header/sep may differ by trailing spaces

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.000123) == "0.000123"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value("txt") == "txt"
        assert format_value(0.0) == "0"


class TestPlots:
    def test_plot_contains_series_markers(self):
        out = plot_series(
            {"up": [(0, 0), (1, 1), (2, 2)], "flat": [(0, 1), (2, 1)]},
            title="shapes",
        )
        assert "shapes" in out
        assert "o=up" in out and "x=flat" in out
        assert out.count("o") >= 3

    def test_monotone_series_renders_monotone(self):
        out = plot_series({"s": [(0, 0), (1, 10)]}, width=20, height=10)
        rows = [l for l in out.splitlines() if "|" in l]
        first_mark_row = min(i for i, l in enumerate(rows) if "o" in l)
        last_mark_row = max(i for i, l in enumerate(rows) if "o" in l)
        assert first_mark_row < last_mark_row  # high y on top

    def test_speedup_curved_axis_labels(self):
        out = plot_speedup_curves({"bench": [(1, 1.0), (64, 49.0)]})
        assert "cores [1, 64]" in out
        assert "speedup" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plot_series({})


class TestMetrics:
    def test_compare_ratio(self):
        c = compare("headline", "speedup@64", paper=54.0, measured=49.9)
        assert c.ratio == pytest.approx(0.924, abs=1e-3)
        row = c.row()
        assert row[0] == "headline"
        assert "0.92x" in row[-1]

