"""Tests for plain-text table and heatmap rendering."""

import pytest

from repro.utils.tables import Table, render_heatmap, render_series, render_table


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        text = render_table(["name", "value"], [["alpha", 1.5], ["beta", 2.0]])
        assert "name" in text and "alpha" in text and "1.50" in text

    def test_title_first_line(self):
        text = render_table(["a"], [[1]], title="My title")
        assert text.splitlines()[0] == "My title"

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_custom_float_format(self):
        text = render_table(["x"], [[3.14159]], float_format="{:.4f}")
        assert "3.1416" in text


class TestTable:
    def test_str_matches_render(self):
        table = Table(headers=["k"], rows=[["x"]])
        assert str(table) == table.render()


class TestRenderHeatmap:
    def test_layout(self):
        text = render_heatmap(["r0", "r1"], [10, 20], [[1.0, 2.0], [3.0, 4.0]],
                              title="heat", row_axis="BER", column_axis="episode")
        assert "heat" in text
        assert "r0" in text and "20" in text
        assert "4.0" in text

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            render_heatmap(["r0"], [1, 2], [[1.0]])
        with pytest.raises(ValueError):
            render_heatmap(["r0", "r1"], [1], [[1.0]])


class TestRenderSeries:
    def test_series_columns(self):
        text = render_series("x", [1, 2], {"a": [0.1, 0.2], "b": [0.3, 0.4]})
        assert "a" in text and "b" in text and "0.40" in text
