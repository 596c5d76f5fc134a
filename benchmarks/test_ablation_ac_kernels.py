"""E19 — Ablation: the warm AC kernel vs the cold per-scenario solver.

Runs the same injection-only Monte Carlo ensemble through the
``powerflow`` study three ways, across chunk sizes 1/8/64/256:

* ``cold``     — the legacy path: realize a network copy, build Ybus,
  flat-ish Newton from ``vm0``, per scenario (``ac_mode="cold"``),
* ``warm``     — the topology-cached kernel with the vectorized
  mismatch screen and warm-started Newton polish, but no fast-decoupled
  sweeps (``ac_fd_sweeps=0``): isolates the warm-start win,
* ``warm+fd``  — the full fast path (``ac_fd_sweeps=8``): multi-RHS
  fast-decoupled corrector sweeps through the cached B'/B'' SuperLU
  factorizations walk each iterate in before Newton polishes, which
  collapses the polish to (usually) a single mismatch check.

Every warm run is asserted against the cold run under the parity
contract (identical convergence and violation sets, numerics within
1e-6 — Newton iterates are path-dependent, so bit-identity is not the
bar; see ``tests/test_ac_fastpath.py``).  The table reports per-scenario
wall and the mean Newton iterations billed per scenario, read off the
``gridmind_ac_newton_iterations`` histogram.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.instrumentation.metrics import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    set_metrics,
)
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble

CASE = "ieee118"
SIGMA = 0.05
N = 256
CHUNKS = (1, 8, 64, 256)
MODES = (("cold", "cold", 0), ("warm", "warm", 0), ("warm+fd", "warm", 8))


def _timed(net, scns, chunk, *, ac_mode, fd_sweeps):
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        tick = time.perf_counter()
        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", ac_mode=ac_mode, ac_fd_sweeps=fd_sweeps),
            chunk_size=chunk,
        ).run(net, scns)
        wall = time.perf_counter() - tick
    finally:
        set_metrics(previous)
    hist = registry.histogram(
        "gridmind_ac_newton_iterations", buckets=ITERATION_BUCKETS
    )
    label = "cold" if ac_mode == "cold" else "warm"
    iters = (
        hist.sum(mode=label) / hist.count(mode=label)
        if hist.count(mode=label)
        else 0.0
    )
    return study, wall, iters


def _assert_parity(warm, cold, what):
    assert len(warm.results) == len(cold.results) == N, what
    for w, c in zip(warm.results, cold.results):
        assert w.name == c.name and w.converged == c.converged, what
        assert w.overloaded_branches == c.overloaded_branches, what
        assert w.n_voltage_violations == c.n_voltage_violations, what
        assert math.isclose(
            w.max_loading_percent, c.max_loading_percent, abs_tol=1e-4
        ), what
        assert math.isclose(w.min_voltage_pu, c.min_voltage_pu, abs_tol=1e-6), what
        assert math.isclose(w.losses_mw, c.losses_mw, abs_tol=1e-4), what


def _run_all():
    net = load_case(CASE)
    scns = monte_carlo_ensemble(n=N, sigma=SIGMA, seed=19)
    rows = []
    for chunk in CHUNKS:
        runs = {}
        for label, ac_mode, fd in MODES:
            study, wall, iters = _timed(
                net, scns, chunk, ac_mode=ac_mode, fd_sweeps=fd
            )
            runs[label] = study
            rows.append((label, chunk, wall, iters))
        for label in ("warm", "warm+fd"):
            _assert_parity(
                runs[label], runs["cold"], f"{label} chunk={chunk}"
            )
    return rows


def test_ablation_ac_kernels(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    cold_wall = {chunk: wall for label, chunk, wall, _ in rows if label == "cold"}
    widths = [-9, -6, -13, -12, -11, -8]
    lines = [
        fmt_row(
            ["mode", "chunk", "wall ms/scn", "mean iters", "vs cold", "speedup"],
            widths,
        ),
        "-" * 68,
    ]
    fd64_speedup = None
    for label, chunk, wall, iters in rows:
        speedup = cold_wall[chunk] / max(wall, 1e-9)
        if label == "warm+fd" and chunk == 64:
            fd64_speedup = speedup
        lines.append(
            fmt_row(
                [label, chunk, f"{1000.0 * wall / N:.3f}", f"{iters:.2f}",
                 f"{1000.0 * (wall - cold_wall[chunk]) / N:+.3f}",
                 f"{speedup:.2f}x"],
                widths,
            )
        )
    lines += [
        "",
        f"{N}-draw Monte Carlo (sigma {SIGMA:.0%}) on {CASE}, serial "
        "dispatch; cold pays realize + Ybus build +",
        "flat-ish Newton per scenario, warm shares one topology compile, "
        "base solve, and B'/B'' factorization",
        "pair per chunk (mean iters = Newton iterations billed per "
        "scenario; fd sweeps run outside Newton).",
        "warm records asserted against cold under the parity contract "
        "on every row",
    ]
    emit(
        "ablation_ac_kernels",
        "E19 — AC ensemble fast path: cold solver vs warm kernel vs "
        "warm + fast-decoupled sweeps",
        lines,
    )

    if not os.environ.get("CI"):
        # Acceptance bar on a dedicated machine: the full fast path is
        # >= 3x faster per scenario than the cold solver at chunk 64.
        assert fd64_speedup is not None
        assert fd64_speedup >= 3.0, (
            f"warm+fd at chunk 64 only {fd64_speedup:.2f}x faster"
        )
