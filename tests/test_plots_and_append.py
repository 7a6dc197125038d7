"""Tests for ASCII plotting."""

import pytest

from repro.bench.plots import bar_chart, line_plot, scheme_bars


class TestBarChart:
    def test_basic_render(self):
        chart = bar_chart(["a", "bb"], [1.0, 2.0], title="T", unit="x")
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert "2x" in lines[2]
        # The larger value gets the full bar.
        assert lines[2].count("█") > lines[1].count("█")

    def test_zero_values(self):
        chart = bar_chart(["a"], [0.0])
        assert "0" in chart

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], []) == "(no data)"


class TestLinePlot:
    def test_render_shape(self):
        plot = line_plot([1, 2, 3, 4, 50], title="jump")
        assert "jump" in plot
        assert "*" in plot

    def test_downsampling_long_series(self):
        plot = line_plot(list(range(1000)), width=40)
        longest = max(len(line) for line in plot.splitlines())
        assert longest < 60

    def test_flat_series(self):
        plot = line_plot([5, 5, 5])
        assert "*" in plot

    def test_empty(self):
        assert line_plot([]) == "(no data)"


class TestSchemeBars:
    def test_from_rows(self):
        rows = [
            {"scheme": "A", "tput": 1.5},
            {"scheme": "B", "tput": 3.0},
        ]
        chart = scheme_bars(rows, "tput")
        assert "A" in chart and "B" in chart
