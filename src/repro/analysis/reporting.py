"""Plain-text rendering of tables and bar charts.

Every experiment regenerates its table/figure as text so results can be
inspected in a terminal or CI log without a plotting stack.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] = None,
                 float_format: str = "{:.3f}") -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    body = [
        " | ".join(r[i].ljust(widths[i]) for i in range(len(columns)))
        for r in rendered
    ]
    return "\n".join([header, separator] + body)


def format_markdown_table(rows: Sequence[Mapping[str, object]],
                          columns: Sequence[str] = None,
                          float_format: str = "{:.3f}") -> str:
    """Render dict rows as a GitHub-flavoured Markdown table.

    Uses the same float formatting as :func:`format_table` so a Markdown
    artifact shows exactly the numbers the plain-text rendering shows.
    """
    if not rows:
        return "*(empty table)*"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value).replace("|", "\\|")

    lines = [
        "| " + " | ".join(str(col) for col in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(render(row.get(col, "")) for col in columns) + " |"
        )
    return "\n".join(lines)


def format_bar_chart(values: Mapping[str, float], width: int = 40,
                     float_format: str = "{:.2f}") -> str:
    """Render a horizontal ASCII bar chart (one bar per key)."""
    if not values:
        return "(empty chart)"
    maximum = max(values.values()) or 1.0
    label_width = max(len(str(k)) for k in values)
    lines: List[str] = []
    for key, value in values.items():
        bar = "#" * max(1, int(round(width * value / maximum))) if value > 0 else ""
        lines.append(
            f"{str(key).ljust(label_width)} | {bar} {float_format.format(value)}"
        )
    return "\n".join(lines)
