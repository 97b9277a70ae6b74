"""Plain-text rendering of tables and heatmaps.

The paper's evaluation is presented as heatmaps (success rate / flight distance
over BER × injection episode) and small tables.  The benchmark harness prints
the same rows and series as text so the reproduction can be compared with the
paper without a plotting stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

Number = Union[int, float]


@dataclass
class Table:
    """A simple column-aligned table with an optional title."""

    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    title: Optional[str] = None

    def render(self, float_format: str = "{:.2f}") -> str:
        return render_table(self.headers, self.rows, title=self.title, float_format=float_format)

    def __str__(self) -> str:
        return self.render()


def _format_cell(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    formatted_rows = [[_format_cell(cell, float_format) for cell in row] for row in rows]
    header_cells = [str(header) for header in headers]
    widths = [len(cell) for cell in header_cells]
    for row in formatted_rows:
        if len(row) != len(header_cells):
            raise ValueError("all rows must have the same number of cells as the header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(cell.ljust(width) for cell, width in zip(header_cells, widths)))
    lines.append(separator)
    for row in formatted_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_heatmap(
    row_labels: Sequence[object],
    column_labels: Sequence[object],
    values: Sequence[Sequence[Number]],
    title: Optional[str] = None,
    value_format: str = "{:>6.1f}",
    row_axis: str = "rows",
    column_axis: str = "cols",
) -> str:
    """Render a matrix of values with labelled rows and columns.

    Mirrors the layout of the paper's Fig. 3/5/7 heatmaps: rows are bit-error
    rates, columns are fault-injection episodes and cells are the measured
    metric.
    """
    values = [list(row) for row in values]
    if len(values) != len(row_labels):
        raise ValueError("number of value rows must match number of row labels")
    for row in values:
        if len(row) != len(column_labels):
            raise ValueError("every value row must match the number of column labels")
    label_width = max([len(str(label)) for label in row_labels] + [len(row_axis)])
    cell_width = max(
        [len(value_format.format(float(v))) for row in values for v in row]
        + [len(str(label)) for label in column_labels]
        + [1]
    )
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " " * label_width + " | " + " ".join(
        str(label).rjust(cell_width) for label in column_labels
    )
    lines.append(f"{row_axis} \\ {column_axis}".ljust(label_width) + " |")
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in zip(row_labels, values):
        cells = " ".join(value_format.format(float(v)).rjust(cell_width) for v in row)
        lines.append(str(label).ljust(label_width) + " | " + cells)
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: dict,
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render one or more named series against a shared x-axis as a table."""
    headers = [x_label] + list(series.keys())
    rows = []
    for index, x in enumerate(x_values):
        row = [x]
        for name in series:
            row.append(series[name][index])
        rows.append(row)
    return render_table(headers, rows, title=title, float_format=float_format)
