"""Benchmark report emission: paper-vs-measured tables.

pytest's default capture intercepts file descriptor 1 itself, so tables
printed during a test only surface on failure.  ``emit`` therefore queues
every table for the ``pytest_terminal_summary`` hook in
``benchmarks/conftest.py``, which prints after capture ends — so
``pytest benchmarks/`` shows the paper-vs-measured tables inline.  The
tables hold wall-clock timings that differ on every run, so they are
archived under ``benchmarks/results/`` only when pytest runs with
``--update-results``.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Blocks queued for the terminal-summary hook (reset per session).
PENDING_BLOCKS: list[str] = []

#: Whether ``emit`` also rewrites ``results/<name>.txt`` (``--update-results``).
WRITE_RESULTS = False


def emit(name: str, title: str, lines: list[str]) -> None:
    block = "\n".join(
        ["", "=" * 78, f"  {title}", "=" * 78, *lines, ""]
    )
    PENDING_BLOCKS.append(block)
    if WRITE_RESULTS:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(block + "\n")


def fmt_row(cols: list, widths: list[int]) -> str:
    out = []
    for col, width in zip(cols, widths):
        text = f"{col:.1f}" if isinstance(col, float) else str(col)
        out.append(text.ljust(abs(width)) if width > 0 else text.rjust(-width))
    return "  ".join(out)
