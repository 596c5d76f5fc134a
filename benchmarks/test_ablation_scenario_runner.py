"""E11 — Ablation: scenario batch runner parallelism.

Runs the same Monte Carlo load ensemble serially and through the
process-pool path, checks the two produce bit-identical aggregates, and
reports the wall-clock speedup.  On a multi-core machine the parallel
runner must beat serial execution; on a single core the table still
documents the (absent) headroom without failing the suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble

CASE = "ieee57"
N_SCENARIOS = 96
SIGMA = 0.05


def _run_all():
    net = load_case(CASE)
    scenarios = monte_carlo_ensemble(n=N_SCENARIOS, sigma=SIGMA, seed=11)
    jobs = min(4, os.cpu_count() or 1)

    serial = BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=1).run(net, scenarios)
    parallel = BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=max(jobs, 2)).run(
        net, scenarios
    )
    return serial, parallel, jobs


def test_ablation_scenario_runner(benchmark):
    serial, parallel, jobs = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    # Parallel dispatch must not change the study's numbers.
    assert serial.aggregate().to_dict() == parallel.aggregate().to_dict()

    speedup = serial.runtime_s / max(parallel.runtime_s, 1e-9)
    cores = os.cpu_count() or 1
    if cores > 1 and parallel.n_jobs > 1 and not os.environ.get("CI"):
        # The acceptance bar: on a (dedicated) multi-core machine the pool
        # wins.  Shared CI runners get the table but not the hard assert —
        # wall-clock under noisy neighbours is not a correctness signal.
        assert speedup > 1.0, (
            f"parallel runner slower than serial on {cores} cores "
            f"({parallel.runtime_s:.2f}s vs {serial.runtime_s:.2f}s)"
        )

    widths = [30, -10, -12, -10]
    lines = [
        fmt_row(["Runner", "scenarios", "time (s)", "speedup"], widths),
        "-" * 66,
        fmt_row(
            ["serial", serial.n_scenarios, serial.runtime_s, 1.0], widths
        ),
        fmt_row(
            [
                f"process pool, {parallel.n_jobs} workers",
                parallel.n_scenarios,
                parallel.runtime_s,
                speedup,
            ],
            widths,
        ),
        "",
        f"case {CASE}, {N_SCENARIOS}-draw Monte Carlo ensemble, sigma "
        f"{SIGMA:.0%}; host has {cores} core(s)",
        "aggregates are bit-identical between serial and parallel runs",
    ]
    emit(
        "ablation_scenario_runner",
        "E11 — scenario batch runner: serial vs process-pool",
        lines,
    )
