"""Benchmark-suite configuration and report printing."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import _report


def pytest_configure(config):
    """``--update-results`` (declared in the root conftest) archives tables."""
    _report.WRITE_RESULTS = config.getoption("--update-results")


@pytest.fixture(scope="session")
def paper_models() -> tuple[str, ...]:
    from repro.llm.profiles import PAPER_MODELS

    return PAPER_MODELS


def pytest_terminal_summary(terminalreporter):
    """Print the paper-vs-measured tables after capture has ended."""
    for block in _report.PENDING_BLOCKS:
        terminalreporter.write_line(block)
    _report.PENDING_BLOCKS.clear()
