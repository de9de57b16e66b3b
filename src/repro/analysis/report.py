"""Plain-text tables and wall-clock timing for the benchmark harness.

Every benchmark prints the rows it reproduces in a uniform format so that
EXPERIMENTS.md can paste them verbatim, and times what it compares with
one helper, :func:`best_of`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, List, NamedTuple, Sequence


def best_of(*sides: Callable[[], object], repeats: int = 5) -> List[float]:
    """The least wall time, in seconds, of each of ``sides`` (callables
    taking no argument) over ``repeats`` runs, in the order given.

    The sides alternate on every repetition — each runs once, in turn,
    then again — so a change of host load weighs on all of them alike.
    Timing one side fully and then the next lets the load of each phase
    decide the ratio a bar compares."""
    best = [float("inf")] * len(sides)
    for _ in range(repeats):
        for index, side in enumerate(sides):
            started = perf_counter()
            side()
            best[index] = min(best[index], perf_counter() - started)
    return best


class ExperimentRow(NamedTuple):
    """One printed row: a label plus a mapping of column name to value."""

    label: str
    values: dict


def format_table(title, columns, rows):
    """Render rows as a fixed-width text table.

    ``columns`` is the ordered list of column names (the first column is the
    row label); ``rows`` is an iterable of :class:`ExperimentRow`.
    """
    rows = list(rows)
    widths = [max(len(columns[0]), max((len(str(row.label)) for row in rows), default=0))]
    for column in columns[1:]:
        width = len(column)
        for row in rows:
            width = max(width, len(_fmt(row.values.get(column, ""))))
        widths.append(width)

    lines = [title, "=" * len(title)]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        cells = [str(row.label).ljust(widths[0])]
        for column, width in zip(columns[1:], widths[1:]):
            cells.append(_fmt(row.values.get(column, "")).rjust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def print_table(title, columns, rows):
    """Format and print a table, returning the formatted string."""
    text = format_table(title, columns, rows)
    print("\n" + text + "\n")
    return text


def _fmt(value):
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)
