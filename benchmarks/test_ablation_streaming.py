"""E13 — Ablation: materialized vs streaming study pipeline at ensemble scale.

The streaming rework keeps a 10k-scenario study's parent-side footprint
at O(in-flight window x chunk + worst-K) scenario results instead of the
full ensemble.  This benchmark runs the same Monte Carlo ensemble through
the shared :class:`~repro.scenarios.executor.StudyExecutor` twice — once
materialized (``keep_results=True``, the pre-streaming world) and once
streamed through the online reducer — and records wall-clock, the
parent-heap allocation peak (tracemalloc; process peak-RSS is monotonic
and can't be compared across phases in one process), peak resident
result records, and the progress-event count.  It asserts the acceptance
properties: identical aggregates on both paths, >= 3 progress events,
and bounded residency on the streamed run.

``GRIDMIND_E13_SCENARIOS`` scales the ensemble (the committed table was
recorded at 10 000; the default keeps tier-1 wall time modest).
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.scenarios import BatchStudyRunner, monte_carlo_ensemble
from repro.service import StudyExecutor

CASE = "ieee14"
N_SCENARIOS = int(os.environ.get("GRIDMIND_E13_SCENARIOS", "400"))
JOBS = 2
CHUNK = 100  # 100+ chunks at 10k -> a real progress stream
WINDOW = 4
WORST_K = 20


def _run(executor, keep: bool):
    net = load_case(CASE)
    scenarios = monte_carlo_ensemble(n=N_SCENARIOS, sigma=0.05, seed=42)
    events = []
    runner = BatchStudyRunner(
        analysis="powerflow",
        executor=executor,
        chunk_size=CHUNK,
        window=WINDOW,
        worst_k=WORST_K,
    )
    tracemalloc.start()
    tick = time.perf_counter()
    study = runner.run(
        net, scenarios, progress=events.append, keep_results=keep
    )
    wall = time.perf_counter() - tick
    _, heap_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return study, wall, heap_peak, len(events)


def test_ablation_streaming(benchmark):
    def _run_all():
        with StudyExecutor(max_workers=JOBS, window=WINDOW) as executor:
            # Warm the pool (and its content-addressed worker state) so
            # neither phase pays start-up; run materialized first.
            mat = _run(executor, keep=True)
            stream = _run(executor, keep=False)
        return mat, stream

    (mat, stream) = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    mat_study, mat_s, mat_heap, mat_events = mat
    stream_study, stream_s, stream_heap, stream_events = stream

    # Acceptance: identical aggregates (rates/counters bit-identical;
    # percentile stats share the same estimator and insertion order, so
    # they are identical too), a real progress stream, bounded residency.
    assert mat_study.aggregate().to_dict() == stream_study.aggregate().to_dict()
    assert stream_events >= 3
    assert mat_study.n_scenarios == stream_study.n_scenarios == N_SCENARIOS
    assert len(stream_study.results) == 0
    assert len(mat_study.results) == N_SCENARIOS
    assert stream_study.peak_resident_results <= WINDOW * CHUNK + WORST_K

    widths = [26, -11, -10, -14, -16, -10]
    lines = [
        fmt_row(
            ["Pipeline", "scenarios", "time (s)", "heap peak MB", "peak resident", "events"],
            widths,
        ),
        "-" * 95,
        fmt_row(
            [
                "materialized (keep all)",
                N_SCENARIOS,
                round(mat_s, 2),
                round(mat_heap / 1e6, 2),
                mat_study.peak_resident_results,
                mat_events,
            ],
            widths,
        ),
        fmt_row(
            [
                "streaming (online reduce)",
                N_SCENARIOS,
                round(stream_s, 2),
                round(stream_heap / 1e6, 2),
                stream_study.peak_resident_results,
                stream_events,
            ],
            widths,
        ),
        "",
        f"residency ratio {mat_study.peak_resident_results / max(1, stream_study.peak_resident_results):.1f}x"
        f" | heap ratio {mat_heap / max(1, stream_heap):.1f}x"
        f" | aggregates bit-identical on both paths"
        f" | {CASE}, {JOBS}-worker shared executor, chunk {CHUNK}, window {WINDOW}, worst-K {WORST_K}",
    ]
    emit(
        "ablation_streaming",
        "E13 — Streaming vs materialized study pipeline "
        f"({N_SCENARIOS}-scenario Monte Carlo)",
        lines,
    )
