"""E15 — Ablation: observability overhead on a streamed ensemble study.

The tracing/metrics stack is designed to be always-on cheap: metrics are
plain dict increments shipped per chunk as a state delta, spans are only
allocated when a recording tracer is installed, and untraced studies pay
a single ``None`` check per chunk.  This benchmark runs the same
Monte-Carlo ensemble through the shared
:class:`~repro.scenarios.executor.StudyExecutor` in three modes —

* ``off``        — metrics registry disabled (workers mirror it), no tracer,
* ``metrics``    — the always-on registry collecting and merging deltas,
* ``metrics+trace`` — additionally a recording tracer with full
  cross-process span stitching (the ``--trace`` path),

alternating the mode order across repeats and keeping the per-mode
minimum wall time (the noise-robust estimator), then reports the
overhead of each mode over ``off``.  Acceptance: metrics overhead < 2 %
and tracing overhead < 10 % at ensemble scale; the committed table was
recorded at 10 000 scenarios.  Small tier-1 runs assert structure plus a
loose noise guard instead of the headline thresholds —
``GRIDMIND_E15_SCENARIOS`` scales the ensemble (>= 2000 engages the
strict thresholds).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.instrumentation.trace import tracing
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.service import StudyExecutor

CASE = "ieee14"
N_SCENARIOS = int(os.environ.get("GRIDMIND_E15_SCENARIOS", "400"))
REPEATS = int(os.environ.get("GRIDMIND_E15_REPEATS", "3"))
JOBS = 2
CHUNK = 100
WINDOW = 4

#: The headline acceptance thresholds only engage at ensemble scale;
#: at tier-1 sizes a single scheduler hiccup exceeds 2 % of the run.
STRICT_SCALE = 2_000
MAX_METRICS_OVERHEAD = 0.02 if N_SCENARIOS >= STRICT_SCALE else 0.10
MAX_TRACING_OVERHEAD = 0.10 if N_SCENARIOS >= STRICT_SCALE else 0.30

MODES = ("off", "metrics", "metrics+trace")


def _run_once(executor, mode: str):
    net = load_case(CASE)
    scenarios = monte_carlo_ensemble(n=N_SCENARIOS, sigma=0.05, seed=42)
    # ac_mode="cold" pins the per-scenario solve path: this ablation
    # measures the per-scenario span/metrics machinery, which the warm
    # AC kernel (one chunk-level span per batch) deliberately bypasses.
    runner = BatchStudyRunner(
        StudyConfig(analysis="powerflow", ac_mode="cold"),
        executor=executor,
        chunk_size=CHUNK,
        window=WINDOW,
    )
    registry = MetricsRegistry(enabled=(mode != "off"))
    previous = set_metrics(registry)
    n_spans = 0
    try:
        tick = time.perf_counter()
        if mode == "metrics+trace":
            with tracing() as tracer:
                study = runner.run(net, scenarios, keep_results=False)
            n_spans = len(tracer.spans())
        else:
            study = runner.run(net, scenarios, keep_results=False)
        wall = time.perf_counter() - tick
    finally:
        set_metrics(previous)
    return study, wall, n_spans, registry


def test_ablation_tracing(benchmark):
    walls: dict[str, list[float]] = {m: [] for m in MODES}
    studies: dict[str, object] = {}
    spans: dict[str, int] = {}
    registries: dict[str, MetricsRegistry] = {}

    def _run_all():
        with StudyExecutor(max_workers=JOBS) as executor:
            # Warm the pool + content-addressed worker state so no mode
            # pays start-up.
            _run_once(executor, "off")
            for repeat in range(REPEATS):
                # Rotate the order so slow drift (thermal, page cache)
                # spreads across modes instead of biasing the last one.
                for mode in MODES[repeat % len(MODES):] + MODES[: repeat % len(MODES)]:
                    study, wall, n_spans, registry = _run_once(executor, mode)
                    walls[mode].append(wall)
                    studies[mode] = study
                    registries[mode] = registry
                    spans[mode] = max(spans.get(mode, 0), n_spans)

    benchmark.pedantic(_run_all, rounds=1, iterations=1)

    best = {mode: min(walls[mode]) for mode in MODES}
    overhead = {
        mode: best[mode] / best["off"] - 1.0 for mode in MODES
    }

    # Identical study outcomes in every mode: observability never
    # changes results.
    base_agg = studies["off"].aggregate().to_dict()
    assert studies["metrics"].aggregate().to_dict() == base_agg
    assert studies["metrics+trace"].aggregate().to_dict() == base_agg

    # Metrics actually collected / spans actually recorded where enabled.
    assert registries["off"].state().get("counters", {}) == {}
    assert (
        registries["metrics"].counter("gridmind_scenarios_total").total()
        == float(N_SCENARIOS)
    )
    assert spans["metrics+trace"] > 2 * N_SCENARIOS  # scenario + solve + infra
    assert spans["off"] == 0

    assert overhead["metrics"] < MAX_METRICS_OVERHEAD, (
        f"metrics overhead {100 * overhead['metrics']:.1f}% exceeds "
        f"{100 * MAX_METRICS_OVERHEAD:.0f}%"
    )
    assert overhead["metrics+trace"] < MAX_TRACING_OVERHEAD, (
        f"tracing overhead {100 * overhead['metrics+trace']:.1f}% exceeds "
        f"{100 * MAX_TRACING_OVERHEAD:.0f}%"
    )

    widths = [16, -11, -13, -13, -12, -9]
    lines = [
        fmt_row(
            ["Mode", "scenarios", "best (s)", "median (s)", "overhead", "spans"],
            widths,
        ),
        "-" * 82,
    ]
    for mode in MODES:
        series = sorted(walls[mode])
        lines.append(fmt_row(
            [
                mode,
                N_SCENARIOS,
                f"{best[mode]:.3f}",
                f"{series[len(series) // 2]:.3f}",
                f"{100 * overhead[mode]:+.1f}%",
                spans[mode],
            ],
            widths,
        ))
    lines += [
        "",
        f"min of {REPEATS} alternating repeats per mode | {CASE}, "
        f"{JOBS}-worker shared executor, chunk {CHUNK}, window {WINDOW} | "
        f"aggregates identical in all modes | acceptance: metrics < 2%, "
        f"tracing < 10% at >= {STRICT_SCALE} scenarios",
    ]
    emit(
        "ablation_tracing",
        "E15 — Observability overhead: metrics and tracing vs instrumentation off "
        f"({N_SCENARIOS}-scenario streamed Monte Carlo)",
        lines,
    )
