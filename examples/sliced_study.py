#!/usr/bin/env python
"""Sliced studies: a daily load profile broken down by hour of day.

A study aggregate used to be one global number set ("7% of scenarios
violate"); dimensional aggregation answers the operator question behind
it — *which hours*.  This example:

* expands a sub-hourly daily profile lazily (every scenario tagged with
  its integer ``hour_of_day``),
* streams it through a :class:`SlicedReducer` — the global
  :class:`StudyReducer` plus one bounded-cardinality sub-reducer per
  observed hour — without retaining per-scenario records,
* prints the per-hour cost/violation table and the grounded narration
  the study agent would produce,
* and shows a zonal *correlated* Monte Carlo ensemble sliced by the
  zone driving each draw's stress.

Run:  PYTHONPATH=src python examples/sliced_study.py [steps]
      (defaults to 96 — a 15-minute profile; try 10000 for scale)
"""

from __future__ import annotations

import sys

from repro import load_case
from repro.llm.narration import narrate_study
from repro.scenarios import (
    BatchStudyRunner,
    StudyConfig,
    daily_profile,
    monte_carlo_ensemble,
    uniform_correlation,
)

STEPS = int(sys.argv[1]) if len(sys.argv) > 1 else 96


def main() -> None:
    print("=" * 70)
    print(f"Daily profile on ieee14, {STEPS} steps, sliced by hour of day")
    print("=" * 70)
    net = load_case("ieee14")
    scenarios = daily_profile(steps=STEPS)
    runner = BatchStudyRunner(
        StudyConfig(analysis="dcopf", slice_by=("hour_of_day",)),
        n_jobs=1,
    )
    study = runner.run(net, scenarios, keep_results=False)
    agg = study.aggregate().to_dict()

    block = agg["slices"]["hour_of_day"]
    print(
        f"\n{study.n_scenarios} scenarios -> {block['n_cells']} hourly buckets "
        f"(peak resident results: {study.peak_resident_results})\n"
    )
    print(f"{'hour':>5s}  {'n':>5s}  {'viol%':>6s}  {'cost p50 $/h':>13s}  {'load p95 %':>11s}")
    for cell in block["cells"]:
        cost = cell.get("cost_stats") or {}
        loading = cell.get("loading_stats") or {}
        print(
            f"{cell['value']:>5s}  {cell['n']:>5d}  "
            f"{100.0 * cell['violation_rate']:>6.1f}  "
            f"{cost.get('p50', float('nan')):>13.2f}  "
            f"{loading.get('p95', float('nan')):>11.1f}"
        )

    print("\nNarrated (exactly what the study agent replies):\n")
    payload = study.to_dict(max_scenarios=3)
    payload["study_kind"] = "profile"
    print(narrate_study(payload, verbosity=1))

    print()
    print("=" * 70)
    print("Correlated Monte Carlo (4 zones, rho=0.6), sliced by hot zone")
    print("=" * 70)
    corr = uniform_correlation(4, 0.6)
    mc = monte_carlo_ensemble(n=200, sigma=0.08, seed=7, correlation=corr)
    study2 = BatchStudyRunner(
        StudyConfig(analysis="powerflow", slice_by=("hot_zone",)),
    ).run(net, mc, keep_results=False)
    for cell in study2.aggregate().to_dict()["slices"]["hot_zone"]["cells"]:
        loading = cell.get("loading_stats") or {}
        print(
            f"  zone {cell['value']}: {cell['n']:>3d} draws, "
            f"{100.0 * cell['violation_rate']:.0f}% violations, "
            f"peak loading p95 {loading.get('p95', 0.0):.1f}%"
        )


if __name__ == "__main__":
    main()
