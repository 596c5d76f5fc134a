#!/usr/bin/env python
"""Scenario studies: declarative operating-point ensembles at batch scale.

The what-if loop from ``whatif_load_study.py`` asked one question per
solve; the scenario engine asks hundreds at once.  This example runs the
acceptance workload — a 200-draw Monte Carlo load study on the 118-bus
system — first conversationally (the planner routes the request to the
study agent) and then programmatically against the batch runner,
including the process-parallel path and a contingency-screening study
that tracks which outages stay critical across the ensemble.

Run:  PYTHONPATH=src python examples/scenario_study.py
"""

from __future__ import annotations

import os

from repro import GridMindSession, load_case
from repro.scenarios import (
    BatchStudyRunner,
    StudyConfig,
    load_sweep,
    monte_carlo_ensemble,
)


def conversational_study() -> None:
    print("=" * 70)
    print("Conversational Monte Carlo study (planner -> study agent)")
    print("=" * 70)
    session = GridMindSession(model="gpt-5-mini", seed=7)
    reply = session.ask(
        "Run a 200-draw Monte Carlo load study on the 118-bus case"
    )
    print(reply.text)
    rec = session.last_record
    print(
        f"\n[agents: {', '.join(reply.agents_involved)} | llm "
        f"{rec.latency_virtual_s:.1f}s (simulated) + compute {rec.wall_s:.1f}s]"
    )

    reply = session.ask("What are the results of the study?")
    print("\nfollow-up ->", reply.text.splitlines()[0])


def programmatic_study() -> None:
    print()
    print("=" * 70)
    print("Same ensemble against the batch runner (what the tool executes)")
    print("=" * 70)
    net = load_case("ieee118")
    scenarios = monte_carlo_ensemble(n=200, sigma=0.05, seed=7)

    jobs = min(4, os.cpu_count() or 1)
    serial = BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=1).run(net, scenarios)
    parallel = BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=jobs).run(net, scenarios)
    assert serial.aggregate().to_dict() == parallel.aggregate().to_dict()

    agg = serial.aggregate()
    print(f"scenarios: {serial.n_scenarios}  converged: {agg.n_converged}")
    print(f"violation rate: {100.0 * agg.violation_rate:.0f}% of scenarios")
    loading = agg.loading_stats
    print(
        f"peak loading %: p50 {loading['p50']:.1f}  p95 {loading['p95']:.1f}  "
        f"max {loading['max']:.1f}"
    )
    print(
        f"wall-clock: serial {serial.runtime_s:.2f}s vs "
        f"{jobs}-worker {parallel.runtime_s:.2f}s "
        f"(speedup x{serial.runtime_s / max(parallel.runtime_s, 1e-9):.2f})"
    )


def screening_stability_study() -> None:
    print()
    print("=" * 70)
    print("Which contingencies stay critical across a load sweep? (ieee57)")
    print("=" * 70)
    net = load_case("ieee57")
    study = BatchStudyRunner(StudyConfig(analysis="screening", ac_budget=15, top_n=5)).run(
        net, load_sweep(0.8, 1.2, 9)
    )
    agg = study.aggregate()
    print(f"{'branch':>8s} {'in top-5 (% of scenarios)':>28s}")
    for branch, freq in list(agg.rank_stability.items())[:8]:
        print(f"{branch:>8d} {100.0 * freq:>27.0f}%")
    print(f"\nstable critical set (>=50%): {agg.stable_critical}")


if __name__ == "__main__":
    conversational_study()
    programmatic_study()
    screening_stability_study()
