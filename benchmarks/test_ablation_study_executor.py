"""E12 — Ablation: shared-executor study throughput vs per-run pools.

The service layer routes every batch study through one long-lived
:class:`~repro.scenarios.executor.StudyExecutor` instead of letting
``BatchStudyRunner`` spawn a fresh process pool per ``run()``.  This
benchmark submits a back-to-back sequence of studies both ways, checks
the numbers are identical, and reports how much of the per-run pool cost
(worker fork + import + base-network shipping) the shared pool
amortises.  It also asserts the lifecycle property the acceptance
criteria name: consecutive studies reuse the same pool and workers.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.service import StudyExecutor

CASE = "ieee57"
N_STUDIES = 4
N_SCENARIOS = 24
# Fixed at 2 (not cpu-scaled): the ablation compares pool *lifecycles* —
# N spawned pools vs one persistent pool — so both paths must actually
# create pools even on a single-core runner.
JOBS = 2


def _studies(net):
    # Distinct seeds: each study is a different ensemble, like a session
    # asking four different Monte Carlo questions in a row.
    return [
        monte_carlo_ensemble(n=N_SCENARIOS, sigma=0.05, seed=100 + i)
        for i in range(N_STUDIES)
    ]


def _run_all():
    net = load_case(CASE)
    ensembles = _studies(net)

    tick = time.perf_counter()
    per_run = [
        BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=JOBS).run(net, scns)
        for scns in ensembles
    ]
    per_run_s = time.perf_counter() - tick

    with StudyExecutor(max_workers=JOBS) as executor:
        tick = time.perf_counter()
        shared = [
            BatchStudyRunner(StudyConfig(analysis="powerflow"), executor=executor).run(net, scns)
            for scns in ensembles
        ]
        shared_s = time.perf_counter() - tick
        stats = executor.stats()

    return per_run, per_run_s, shared, shared_s, stats


def test_ablation_study_executor(benchmark):
    per_run, per_run_s, shared, shared_s, stats = benchmark.pedantic(
        _run_all, rounds=1, iterations=1
    )

    # Identical numbers on both paths, study by study.
    for a, b in zip(per_run, shared):
        assert a.aggregate().to_dict() == b.aggregate().to_dict()

    # Lifecycle: N studies, one pool — the whole point of the executor.
    assert stats["n_studies"] == N_STUDIES
    assert stats["pools_started"] == 1
    assert stats["n_worker_pids"] <= JOBS

    speedup = per_run_s / max(shared_s, 1e-9)
    cores = os.cpu_count() or 1
    if cores > 1 and JOBS > 1 and not os.environ.get("CI"):
        # Dedicated multi-core machines must see the amortisation win;
        # noisy shared runners still record the table.
        assert speedup > 1.0, (
            f"shared executor slower than per-run pools "
            f"({shared_s:.2f}s vs {per_run_s:.2f}s)"
        )

    widths = [34, -9, -12, -14]
    lines = [
        fmt_row(["Dispatch", "studies", "time (s)", "s/study"], widths),
        "-" * 73,
        fmt_row(
            [
                f"per-run pools ({JOBS} workers)",
                N_STUDIES,
                round(per_run_s, 2),
                round(per_run_s / N_STUDIES, 2),
            ],
            widths,
        ),
        fmt_row(
            [
                f"shared StudyExecutor ({JOBS} workers)",
                N_STUDIES,
                round(shared_s, 2),
                round(shared_s / N_STUDIES, 2),
            ],
            widths,
        ),
        "",
        f"speedup {speedup:.2f}x | executor stats: pools_started="
        f"{stats['pools_started']}, n_chunks={stats['n_chunks']}, "
        f"worker_pids={stats['n_worker_pids']} | "
        f"{CASE}, {N_SCENARIOS} scenarios/study, powerflow analysis",
    ]
    emit(
        "ablation_study_executor",
        "E12 — Shared-executor study throughput vs per-run pools",
        lines,
    )
