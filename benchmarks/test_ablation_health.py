"""E16 — Ablation: health sampling/evaluation overhead on a streamed study.

The operational health layer is designed to ride on the always-on
metrics registry for near nothing: sampling is a lock-guarded flattening
of the instrument dicts into plain data on a fixed interval, and rule
evaluation is arithmetic over at most ``max_samples`` retained
snapshots — none of it touches the study hot path.  This benchmark runs
the same Monte-Carlo ensemble through the shared
:class:`~repro.scenarios.executor.StudyExecutor` in two modes —

* ``metrics``        — the E15 metrics-on baseline (registry enabled,
  no sampler),
* ``metrics+health`` — additionally a background thread snapshotting the
  registry and evaluating the builtin rule set every
  ``SAMPLE_INTERVAL_S`` (far more aggressive than the service's 5 s
  production default, so the measured overhead is an upper bound),

alternating the mode order across repeats and keeping the per-mode
minimum wall (the noise-robust estimator).  Acceptance: sampler +
evaluation overhead < 3 % on the metrics baseline at ensemble scale; the
committed table was recorded at 10 000 scenarios.  Small tier-1 runs
assert structure plus a loose noise guard — ``GRIDMIND_E16_SCENARIOS``
scales the ensemble (>= 2000 engages the strict threshold).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.instrumentation.health import HealthMonitor
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.instrumentation.rollup import MetricsSampler
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.service import StudyExecutor

CASE = "ieee14"
N_SCENARIOS = int(os.environ.get("GRIDMIND_E16_SCENARIOS", "400"))
REPEATS = int(os.environ.get("GRIDMIND_E16_REPEATS", "3"))
JOBS = 2
CHUNK = 100
WINDOW = 4
#: 50x the service's production sampling rate: the overhead measured
#: here bounds the deployed cost from far above.
SAMPLE_INTERVAL_S = 0.1

STRICT_SCALE = 2_000
MAX_HEALTH_OVERHEAD = 0.03 if N_SCENARIOS >= STRICT_SCALE else 0.15

MODES = ("metrics", "metrics+health")


class _SamplerThread:
    """Background sample + evaluate loop (what the service task does)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.sampler = MetricsSampler(registry, interval_s=SAMPLE_INTERVAL_S)
        self.monitor = HealthMonitor()
        self.n_evaluations = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sampler.sample()
            self.monitor.evaluate(self.sampler)
            self.n_evaluations += 1

    def __enter__(self) -> "_SamplerThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        # A final tick so even the fastest run retains >= 2 snapshots.
        self.sampler.sample()
        self.monitor.evaluate(self.sampler)
        self.n_evaluations += 1


def _run_once(executor, mode: str):
    net = load_case(CASE)
    scenarios = monte_carlo_ensemble(n=N_SCENARIOS, sigma=0.05, seed=42)
    runner = BatchStudyRunner(
        StudyConfig(analysis="powerflow"),
        executor=executor,
        chunk_size=CHUNK,
        window=WINDOW,
    )
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    health: _SamplerThread | None = None
    try:
        tick = time.perf_counter()
        if mode == "metrics+health":
            with _SamplerThread(registry) as health:
                study = runner.run(net, scenarios, keep_results=False)
                health.sampler.sample()  # snapshot with the study folded in
        else:
            study = runner.run(net, scenarios, keep_results=False)
        wall = time.perf_counter() - tick
    finally:
        set_metrics(previous)
    return study, wall, registry, health


def test_ablation_health(benchmark):
    walls: dict[str, list[float]] = {m: [] for m in MODES}
    studies: dict[str, object] = {}
    registries: dict[str, MetricsRegistry] = {}
    samplers: dict[str, _SamplerThread | None] = {}

    def _run_all():
        with StudyExecutor(max_workers=JOBS) as executor:
            _run_once(executor, "metrics")  # warm the pool
            for repeat in range(REPEATS):
                for mode in MODES[repeat % len(MODES):] + MODES[: repeat % len(MODES)]:
                    study, wall, registry, health = _run_once(executor, mode)
                    walls[mode].append(wall)
                    studies[mode] = study
                    registries[mode] = registry
                    samplers[mode] = health

    benchmark.pedantic(_run_all, rounds=1, iterations=1)

    best = {mode: min(walls[mode]) for mode in MODES}
    overhead = best["metrics+health"] / best["metrics"] - 1.0

    # Sampling never changes study results.
    assert (
        studies["metrics+health"].aggregate().to_dict()
        == studies["metrics"].aggregate().to_dict()
    )

    # The health mode really sampled and evaluated every builtin rule.
    health = samplers["metrics+health"]
    assert health is not None and health.sampler.n_samples >= 2
    report = health.monitor.evaluate(health.sampler)
    assert len(report.rules) == len(health.monitor.rules)
    assert report.status in ("ok", "warn", "crit")
    # The windowed series saw the study's chunk-wall observations.
    assert health.sampler.counter_value("gridmind_scenarios_total") == float(
        N_SCENARIOS
    )

    assert overhead < MAX_HEALTH_OVERHEAD, (
        f"health overhead {100 * overhead:.1f}% on the metrics baseline "
        f"exceeds {100 * MAX_HEALTH_OVERHEAD:.0f}%"
    )

    widths = [16, -11, -13, -13, -12, -14]
    lines = [
        fmt_row(
            ["Mode", "scenarios", "best (s)", "median (s)", "overhead", "evaluations"],
            widths,
        ),
        "-" * 86,
    ]
    for mode in MODES:
        series = sorted(walls[mode])
        health = samplers[mode]
        lines.append(fmt_row(
            [
                mode,
                N_SCENARIOS,
                f"{best[mode]:.3f}",
                f"{series[len(series) // 2]:.3f}",
                f"{100 * (best[mode] / best['metrics'] - 1.0):+.1f}%",
                health.n_evaluations if health is not None else 0,
            ],
            widths,
        ))
    lines += [
        "",
        f"min of {REPEATS} alternating repeats per mode | {CASE}, "
        f"{JOBS}-worker shared executor, chunk {CHUNK}, window {WINDOW} | "
        f"sampler+builtin-rule evaluation every {SAMPLE_INTERVAL_S}s (50x the "
        f"5s service default) | aggregates identical in both modes | "
        f"acceptance: health < 3% over metrics-on at >= {STRICT_SCALE} scenarios",
    ]
    emit(
        "ablation_health",
        "E16 — Health layer overhead: rollup sampling + SLO evaluation vs "
        f"metrics-only ({N_SCENARIOS}-scenario streamed Monte Carlo)",
        lines,
    )
