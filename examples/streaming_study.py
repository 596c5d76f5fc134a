#!/usr/bin/env python
"""Streaming studies: a 10k-scenario ensemble with live progress.

``scenario_study.py`` materialised a 200-draw ensemble; this example
runs *fifty times* that through the streaming pipeline and never holds
more than a bounded window of results:

* the Monte Carlo family expands lazily (a :class:`ScenarioStream`, not
  a 10k-element list),
* the runner keeps a bounded window of chunks in flight on the shared
  :class:`StudyExecutor` (backpressure against the pool),
* completed chunks fold into the online :class:`StudyReducer` — exact
  counters and rates, P2 percentile sketches past the exact-buffer cap —
  and are dropped,
* a progress callback narrates delivery while the study runs, and the
  final :class:`StudyResult` retains only the aggregate plus the
  worst-K scenario heap.

Run:  PYTHONPATH=src python examples/streaming_study.py [n_scenarios]
      (defaults to 10 000; pass e.g. 1000 for a quick look)
"""

from __future__ import annotations

import sys

from repro import load_case
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.service import StudyExecutor

N = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
CHUNK = max(10, N // 100)
WINDOW = 4


def progress_line(p) -> None:
    bar = "#" * int(30 * (p.fraction or 0.0))
    print(
        f"\r[{bar:<30s}] {p.n_done}/{p.n_total} "
        f"| converged {p.n_converged} | violations {100 * p.violation_rate:.0f}% "
        f"| {p.elapsed_s:.0f}s",
        end="",
        flush=True,
    )


def main() -> None:
    print("=" * 70)
    print(f"Streaming {N}-scenario Monte Carlo study on ieee14")
    print("=" * 70)
    net = load_case("ieee14")
    scenarios = monte_carlo_ensemble(n=N, sigma=0.05, seed=42)
    print(f"scenario family: {scenarios!r}  (lazy — nothing expanded yet)")

    with StudyExecutor(max_workers=2) as executor:
        runner = BatchStudyRunner(
            StudyConfig(analysis="powerflow"),
            executor=executor,
            chunk_size=CHUNK,
            window=WINDOW,
        )
        study = runner.run(
            net, scenarios, progress=progress_line, keep_results=False
        )
    print()

    agg = study.aggregate()
    print(f"\nscenarios: {study.n_scenarios}  converged: {agg.n_converged}")
    print(f"violation rate: {100.0 * agg.violation_rate:.1f}% of scenarios")
    loading = agg.loading_stats
    print(
        f"peak loading %: p50 {loading['p50']:.1f}  p95 {loading['p95']:.1f}  "
        f"max {loading['max']:.1f}  ({loading['estimator']} estimator)"
    )
    print(
        f"progress events: {study.n_progress_events}  |  "
        f"peak resident results: {study.peak_resident_results} "
        f"(window {WINDOW} x chunk {CHUNK} + worst-{runner.worst_k} bound; "
        f"a materialized run would hold all {N})"
    )
    print("most stressed scenarios (from the capped worst-K heap):")
    for w in study.worst(3):
        print(f"  - {w.name}: peak loading {w.max_loading_percent:.1f}%")


if __name__ == "__main__":
    main()
