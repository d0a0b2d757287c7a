"""ASCII figure rendering for ``repro-bench-v1`` results documents.

The harness deliberately emits plot-ready JSON instead of images; this
module closes the loop in the terminal.  Two views cover the paper's
figure families:

- ``messages`` — total messages vs stream position, one series per run
  (Figs. 4-6 read along the stream), from any grid document whose
  ``results`` entries carry ``checkpoints``.
- ``ratio`` — the UNIFORM/NONUNIFORM message ratio vs stream length
  (the Sec. IV-E crossover chart), from ``separation`` /
  ``long-crossover`` documents whose rows carry ``uniform_messages`` and
  ``nonuniform_messages``; a reference line marks ratio = 1.

``view="auto"`` picks every view the document supports.

:func:`render` draws ASCII plots (always available); :func:`render_png`
draws the same views with matplotlib when it is installed.  matplotlib
is an *optional* dependency: its import is gated behind
:func:`matplotlib_available`, and :func:`render_png` raises a clear
:class:`~repro.errors.EvaluationError` instead of crashing with an
``ImportError`` when it is missing (the CLI falls back to ASCII with a
notice).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import EvaluationError
from repro.utils.tabletext import format_ascii_plot

#: Recognized view names (``auto`` expands to all that apply).
VIEWS = ("auto", "messages", "ratio")


def load_document(path) -> dict:
    """Read one results document (any ``repro-bench-v1`` shape)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "results" not in payload:
        raise EvaluationError(
            f"{path} is not a benchmark document (no 'results' key)"
        )
    return payload


def _checkpoint_rows(document: dict) -> list[dict]:
    """Rows carrying per-checkpoint traces: grid ``results``, or the
    full ``runs`` block that ratio-style documents attach alongside
    their summary rows."""
    rows = [r for r in document.get("results", []) if "checkpoints" in r]
    rows += [r for r in document.get("runs", []) if "checkpoints" in r]
    return rows


def available_views(document: dict) -> list[str]:
    """The concrete views this document's rows support."""
    views = []
    if _checkpoint_rows(document):
        views.append("messages")
    if any(
        "uniform_messages" in row and "nonuniform_messages" in row
        for row in document.get("results", [])
    ):
        views.append("ratio")
    return views


def _run_label(row: dict, rows: list[dict]) -> str:
    """Label one run by its algorithm plus whatever varies in this doc."""
    label = str(row.get("algorithm", "run"))
    for field, prefix in (
        ("network", ""), ("eps", "eps="), ("n_sites", "k="),
        ("partitioner", ""), ("zipf_exponent", "zipf="),
        ("counter_backend", ""), ("n_events", "m="), ("seed", "seed="),
    ):
        values = {r.get(field) for r in rows if field in r}
        if len(values) > 1:
            label += f" {prefix}{row.get(field)}"
    return label


def _messages_series(document: dict) -> tuple[dict[str, list], str]:
    """The per-run ``(events, total_messages)`` series and plot title."""
    rows = _checkpoint_rows(document)
    series: dict[str, list] = {}
    for row in rows:
        label = _run_label(row, rows)
        # Rows the varying fields cannot tell apart still get their own
        # series rather than silently shadowing one another.
        if label in series:
            suffix = 2
            while f"{label} #{suffix}" in series:
                suffix += 1
            label = f"{label} #{suffix}"
        series[label] = [
            (c["events"], c["total_messages"]) for c in row["checkpoints"]
        ]
    title = (
        f"{document.get('benchmark', 'benchmark')}: "
        "messages along the stream"
    )
    return series, title


def _ratio_series(document: dict) -> tuple[list, str]:
    """The ``(events, uniform/nonuniform)`` points and plot title."""
    rows = [
        r for r in document.get("results", [])
        if "uniform_messages" in r and "nonuniform_messages" in r
    ]
    points = [
        (
            row.get("n_events", index),
            row["uniform_messages"] / max(row["nonuniform_messages"], 1),
        )
        for index, row in enumerate(rows)
    ]
    crossover = document.get("crossover_events")
    title = "uniform/nonuniform message ratio (crossover: " + (
        f"m={crossover}" if crossover is not None else "not reached"
    ) + ")"
    return points, title


def _messages_plot(document: dict, *, width: int, height: int) -> str:
    series, title = _messages_series(document)
    return format_ascii_plot(
        series,
        width=width,
        height=height,
        title=title,
        x_label="events",
        y_label="messages",
        logx=True,
        logy=True,
    )


def _ratio_plot(document: dict, *, width: int, height: int) -> str:
    points, title = _ratio_series(document)
    return format_ascii_plot(
        {"uniform/nonuniform": points},
        width=width,
        height=height,
        title=title,
        x_label="events",
        y_label="ratio",
        logx=True,
        hline=1.0,
    )


def _resolve_views(document: dict, view: str) -> list[str]:
    """The concrete view list ``view`` asks of this document, validated."""
    if view not in VIEWS:
        raise EvaluationError(
            f"unknown view {view!r}; expected one of {VIEWS}"
        )
    supported = available_views(document)
    if not supported:
        raise EvaluationError(
            "document has no plottable rows (no per-checkpoint traces, "
            "no uniform/nonuniform message pairs)"
        )
    wanted = supported if view == "auto" else [view]
    if not set(wanted) <= set(supported):
        raise EvaluationError(
            f"document supports views {supported}, requested {view!r}"
        )
    return wanted


def render(
    document: dict,
    *,
    view: str = "auto",
    width: int = 64,
    height: int = 16,
) -> str:
    """Render the requested view(s) of one document as one text block."""
    renderers = {"messages": _messages_plot, "ratio": _ratio_plot}
    return "\n\n".join(
        renderers[name](document, width=width, height=height)
        for name in _resolve_views(document, view)
    )


def matplotlib_available() -> bool:
    """Whether the optional matplotlib dependency can be imported."""
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True


def _load_pyplot():
    """Import pyplot on the headless Agg backend, or fail legibly."""
    try:
        import matplotlib
    except ImportError as exc:
        raise EvaluationError(
            "PNG rendering needs matplotlib, which is not installed; "
            "use the ASCII renderer instead (drop --png) or install "
            "matplotlib"
        ) from exc
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    return plt


def render_png(
    document: dict,
    path,
    *,
    view: str = "auto",
    dpi: int = 100,
) -> str:
    """Render the requested view(s) as one PNG file; returns ``path``.

    Stacks one axes per view (the same views :func:`render` draws in
    ASCII).  Raises :class:`~repro.errors.EvaluationError` when
    matplotlib is missing — check :func:`matplotlib_available` first to
    fall back to ASCII instead.
    """
    wanted = _resolve_views(document, view)
    plt = _load_pyplot()
    fig, axes = plt.subplots(
        len(wanted), 1, figsize=(8.0, 4.5 * len(wanted)), squeeze=False
    )
    for ax, name in zip((row[0] for row in axes), wanted):
        if name == "messages":
            series, title = _messages_series(document)
            for label, points in series.items():
                ax.plot(*zip(*points), marker="o", label=label)
            ax.set_yscale("log")
            ax.set_ylabel("messages")
            ax.legend(fontsize="small")
        else:
            points, title = _ratio_series(document)
            ax.plot(*zip(*points), marker="o", label="uniform/nonuniform")
            ax.axhline(1.0, linestyle="--", linewidth=1.0)
            ax.set_ylabel("ratio")
        ax.set_xscale("log")
        ax.set_xlabel("events")
        ax.set_title(title)
    fig.tight_layout()
    fig.savefig(path, dpi=dpi)
    plt.close(fig)
    return str(path)
