"""Plain-text table and chart rendering used by benchmarks and examples.

Benchmarks regenerate the paper's tables and figures as aligned text; this
module keeps that formatting in one place: :func:`format_table` for
aligned tables and :func:`format_ascii_plot` for terminal scatter charts
(the ``figures`` subcommand renders results documents with it).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence


def _render_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    str_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)


#: Per-series plot markers, assigned in series order; further series wrap.
PLOT_MARKERS = "ox+*sd^v"


def _tick(value: float) -> str:
    return f"{value:.3g}"


def _axis_transform(points: list[float], log: bool) -> tuple:
    """``(transform, lo, hi)`` for one axis; log only if all values > 0."""
    use_log = log and all(p > 0 for p in points)
    transform = math.log10 if use_log else float
    values = [transform(p) for p in points]
    lo, hi = min(values), max(values)
    if hi == lo:  # degenerate range: center the single column/row
        lo, hi = lo - 0.5, hi + 0.5
    return transform, lo, hi


def format_ascii_plot(
    series: "Mapping[str, Sequence[tuple[float, float]]]",
    *,
    width: int = 64,
    height: int = 16,
    title: str | None = None,
    x_label: str = "x",
    y_label: str = "y",
    logx: bool = False,
    logy: bool = False,
    hline: float | None = None,
) -> str:
    """Render named ``(x, y)`` point series as a terminal scatter chart.

    Each series gets a marker from :data:`PLOT_MARKERS` (legend below the
    chart); later series overwrite earlier ones on collisions.  ``logx``
    / ``logy`` switch an axis to log scale when every value on it is
    positive (silently falling back to linear otherwise, so callers can
    request log for stream-length axes without guarding zero).
    ``hline`` draws a horizontal reference line (e.g. ratio = 1).
    """
    width = max(16, int(width))
    height = max(4, int(height))
    named = [(name, list(points)) for name, points in series.items() if points]
    if not named:
        raise ValueError("nothing to plot: every series is empty")
    xs = [float(x) for _, points in named for x, _ in points]
    ys = [float(y) for _, points in named for _, y in points]
    if hline is not None:
        ys.append(float(hline))
    fx, x_lo, x_hi = _axis_transform(xs, logx)
    fy, y_lo, y_hi = _axis_transform(ys, logy)

    def column(x: float) -> int:
        return round((fx(x) - x_lo) / (x_hi - x_lo) * (width - 1))

    def row(y: float) -> int:
        return (height - 1) - round((fy(y) - y_lo) / (y_hi - y_lo) * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    if hline is not None:
        for c in range(width):
            grid[row(hline)][c] = "-"
    legend = []
    for rank, (name, points) in enumerate(named):
        marker = PLOT_MARKERS[rank % len(PLOT_MARKERS)]
        legend.append(f"  {marker} {name}")
        for x, y in points:
            grid[row(float(y))][column(float(x))] = marker

    use_logy = logy and all(v > 0 for v in ys)

    def value_at_row(r: int) -> float:
        transformed = y_lo + (height - 1 - r) / (height - 1) * (y_hi - y_lo)
        return 10.0 ** transformed if use_logy else transformed

    y_ticks = {
        r: _tick(value_at_row(r)) for r in (0, (height - 1) // 2, height - 1)
    }
    gutter = max(len(t) for t in y_ticks.values())
    parts = []
    if title:
        parts.append(title)
    parts.append(f"{y_label} ({'log' if use_logy else 'linear'})")
    for r, cells in enumerate(grid):
        tick = y_ticks.get(r, "")
        parts.append(f"{tick.rjust(gutter)} |{''.join(cells)}".rstrip())
    left = _tick(min(xs))
    right = _tick(max(xs))
    axis = f"{' ' * gutter} +{'-' * width}"
    scale = "log" if logx and min(xs) > 0 else "linear"
    span = f"{left} .. {right}"
    label = f"{x_label} ({scale}): {span}"
    parts.append(axis)
    parts.append(f"{' ' * gutter}  {label}")
    parts.extend(legend)
    return "\n".join(parts)
