"""E8 — Ablation: contingency-analysis acceleration.

Compares the exhaustive AC N-1 sweep (compensated outage kernel) against
(a) LODF screening with an AC budget and (b) the scalar sweep, one warm
Newton solve per outage; checks that the accelerated paths agree with the
exhaustive ranking where it matters (top of the criticality list) and
with the scalar sweep outcome for outcome.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.contingency import (
    rank_critical_elements,
    run_n_minus_1,
    run_screened_n_minus_1,
)
from repro.contingency.nminus1 import analyze_single_outage
from repro.grid import graph as gridgraph
from repro.grid.cases import load_case

CASE = "ieee118"
AC_BUDGET = 25


def _run_all():
    net = load_case(CASE)

    t0 = time.perf_counter()
    full = run_n_minus_1(net)
    t_full = time.perf_counter() - t0

    t0 = time.perf_counter()
    screened, estimate = run_screened_n_minus_1(net, ac_budget=AC_BUDGET)
    t_screen = time.perf_counter() - t0

    t0 = time.perf_counter()
    bridges = gridgraph.bridge_branches(net)
    v_base = full.base.extras["v_complex"]
    scalar = [
        analyze_single_outage(net, o.branch_id, bridges=bridges, v_base=v_base)
        for o in full.outcomes
    ]
    t_scalar = time.perf_counter() - t0

    return full, t_full, screened, estimate, t_screen, scalar, t_scalar


def test_ablation_ca_screening(benchmark):
    full, t_full, screened, estimate, t_screen, scalar, t_scalar = (
        benchmark.pedantic(_run_all, rounds=1, iterations=1)
    )

    rank_full = rank_critical_elements(full, top_n=5)
    rank_screen = rank_critical_elements(screened, top_n=5)
    overlap = len(
        set(rank_full.critical_branch_ids) & set(rank_screen.critical_branch_ids)
    )

    widths = [26, -10, -12, -10]
    lines = [
        fmt_row(["Strategy", "AC solves", "time (s)", "speedup"], widths),
        "-" * 62,
        fmt_row(["full serial sweep", full.n_contingencies, t_full, 1.0], widths),
        fmt_row(
            ["LODF screen + AC verify", screened.n_contingencies, t_screen,
             t_full / max(t_screen, 1e-9)],
            widths,
        ),
        fmt_row(
            ["scalar sweep (Newton)", len(scalar), t_scalar,
             t_full / max(t_scalar, 1e-9)],
            widths,
        ),
        "",
        f"DC screening pass itself: {estimate.runtime_s * 1000:.0f} ms for "
        f"{len(estimate.branch_ids)} outages (vectorised LODF)",
        f"top-5 agreement full vs screened: {overlap}/5 "
        f"({rank_full.critical_branch_ids} vs {rank_screen.critical_branch_ids})",
    ]
    emit("ablation_ca_screening", "E8 — contingency acceleration", lines)

    assert t_screen < t_full
    assert rank_full.critical_branch_ids[0] == rank_screen.critical_branch_ids[0]
    assert overlap >= 3
    # The kernel sweep must agree with the scalar one outcome for outcome.
    for a, b in zip(full.outcomes, scalar):
        assert a.branch_id == b.branch_id
        assert (a.converged, a.islanded) == (b.converged, b.islanded)
        assert [i for i, _ in a.overloads] == [i for i, _ in b.overloads]
