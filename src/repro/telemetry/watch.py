"""The watch engine: fleet -> feed -> rolling windows -> health -> alerts.

One synchronous loop shared by every watch front end (the ``gridmind
watch`` CLI, the service's ``WatchRequest`` surface, and the study
agent's watch tool).  The parent synthesises each tick's frames and
adapts them into one scenario; the ticks then run through the same chunk
stream every batch study uses
(:meth:`~repro.scenarios.runner.BatchStudyRunner.chunk_stream`), on the
caller's :class:`~repro.scenarios.executor.StudyExecutor` when one is
given and in-process otherwise.  Each chunk is one window slide, and
ticks run cold (``ac_mode="cold"``): every power-flow tick takes the
scalar solve, so pooled and serial watches produce the same bits.  Each
tick result is folded into the rolling-window study in tick order, and
on every closed window the loop publishes the rollup to the metrics
registry, takes a simulated-clock sampler snapshot, and lets the health
monitor turn it into edge-triggered alerts.

Billing happens at fold time.  The frame, anomaly-frame and tick
counters are bumped when a tick's result is folded, once per tick and
device kind, from counts the parent kept when it drew the tick (not from
scenario tags, which reach the window digest).  The frame generator runs
ahead of the fold by up to the executor's in-flight window, but every
window close samples the same telemetry series whether the watch runs
serial or pooled.

Determinism: with ``pace="simulated"`` everything the loop touches is a
pure function of (network, fleet spec, window spec) — per-device seeds,
per-tick solves, reducer folds, and sampler timestamps (simulated
seconds, ``end_tick * interval_s``, never the wall clock).  Two runs with
the same inputs produce bit-identical per-window aggregates (asserted
via :func:`~repro.telemetry.window.windows_digest`) and the same alert
sequence, on any executor.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import closing
from typing import Callable, Sequence

from ..grid.network import Network
from ..instrumentation.health import AlertEvent, HealthMonitor, HealthRule
from ..instrumentation.metrics import get_metrics
from ..instrumentation.rollup import MetricsSampler
from ..instrumentation.trace import get_tracer
from ..scenarios.aggregate import DEFAULT_SLICE_MAX_VALUES
from ..scenarios.executor import StudyExecutor
from ..scenarios.runner import BatchStudyRunner, StudyConfig
from ..scenarios.stream import ScenarioStream
from .feed import DEFAULT_SPEEDUP, PACE_SIMULATED, TelemetryStream
from .fleet import DEFAULT_INTERVAL_S, AnomalySpec, DeviceFleet, FleetSpec
from .window import (
    DEFAULT_WINDOW_SLICES,
    RollingWindowStudy,
    WindowResult,
    WindowSpec,
    telemetry_rules,
    windows_digest,
)


def run_watch(
    net: Network,
    *,
    n_devices: int,
    n_ticks: int,
    window_ticks: int,
    slide_ticks: int | None = None,
    seed: int = 0,
    interval_s: float = DEFAULT_INTERVAL_S,
    sigma: float = 0.02,
    der_fraction: float = 0.25,
    anomaly: AnomalySpec | None = None,
    analysis: str = "powerflow",
    slice_by: Sequence[str] = DEFAULT_WINDOW_SLICES,
    max_values: int = DEFAULT_SLICE_MAX_VALUES,
    pace: str = PACE_SIMULATED,
    speedup: float = DEFAULT_SPEEDUP,
    rules: Sequence[HealthRule] | None = None,
    on_window: Callable[[dict], None] | None = None,
    executor: StudyExecutor | None = None,
) -> dict:
    """Run a bounded watch and return its full, JSON-ready outcome.

    ``on_window`` (optional) receives one dict per closed window *as it
    closes* — the window's aggregate plus the alert events it triggered
    — which is how the CLI and service stream summaries live.  The
    return value repeats every window (with alerts attached), the alert
    log, and a digest over the pure window aggregates for determinism
    checks.

    ``executor`` (optional) runs the ticks on a shared process pool, as
    :class:`~repro.scenarios.runner.BatchStudyRunner` does; without one
    they run in-process.  The outcome is identical either way.
    """
    fleet_spec = FleetSpec(
        n_devices=n_devices,
        seed=seed,
        interval_s=interval_s,
        sigma=sigma,
        der_fraction=der_fraction,
        anomalies=(anomaly,) if anomaly is not None else (),
    )
    fleet = DeviceFleet(net, fleet_spec)
    stream = TelemetryStream(fleet, n_ticks, pace=pace, speedup=speedup)
    window_spec = WindowSpec(
        size_ticks=window_ticks,
        slide_ticks=slide_ticks,
        slice_by=tuple(slice_by),
        max_values=max_values,
    )
    study = RollingWindowStudy(window_spec)
    runner = BatchStudyRunner(
        StudyConfig(analysis=analysis, ac_mode="cold"),
        chunk_size=window_spec.slide_ticks,
        executor=executor,
    )
    # Frame counts of each drawn tick, by device kind and by anomaly,
    # held until the tick's result is folded.
    drawn: dict[int, tuple[Counter, Counter]] = {}

    def feed():
        for tick, frames in stream.tick_batches():
            drawn[tick] = (
                Counter(f.kind for f in frames),
                Counter(f.anomaly for f in frames if f.anomaly),
            )
            yield stream.scenario_for_tick(tick, frames)

    ticks = ScenarioStream(feed, length=n_ticks, family=stream.family)

    registry = get_metrics()
    # A dedicated sampler/monitor pair on simulated time: the service's
    # wall-clock sampler keeps its own cadence, while alert evaluation
    # here must be a pure function of the feed for replay determinism.
    sampler = MetricsSampler(interval_s=max(interval_s, 1e-6), max_samples=720)
    monitor = HealthMonitor(rules=tuple(rules) if rules is not None else tuple(telemetry_rules()))

    frames_counter = registry.counter(
        "gridmind_telemetry_frames_total", "Telemetry frames ingested, by device kind"
    )
    anomaly_frames = registry.counter(
        "gridmind_telemetry_anomaly_frames_total", "Telemetry frames carrying an injected anomaly"
    )
    ticks_counter = registry.counter(
        "gridmind_telemetry_ticks_total", "Telemetry ticks evaluated"
    )
    results_counter = registry.counter(
        "gridmind_telemetry_results_total", "Tick results offered to the rolling windows"
    )
    late_counter = registry.counter(
        "gridmind_telemetry_late_results_total",
        "Tick results arriving too late for any open window",
    )
    windows_counter = registry.counter(
        "gridmind_telemetry_windows_total", "Rolling windows closed"
    )
    violation_gauge = registry.gauge(
        "gridmind_telemetry_window_violation_rate",
        "Latest closed window's violation rate",
    )
    anomaly_gauge = registry.gauge(
        "gridmind_telemetry_window_anomaly_rate",
        "Latest closed window's anomalous-tick rate",
    )
    open_gauge = registry.gauge(
        "gridmind_telemetry_open_windows", "Rolling windows currently open"
    )

    windows: list[dict] = []
    pure_windows: list[WindowResult] = []
    alerts: list[AlertEvent] = []
    last_seq = -1
    n_frames = 0
    n_anomaly_frames = 0
    late_before = 0

    def close_window(window: WindowResult) -> None:
        nonlocal last_seq, late_before
        windows_counter.inc()
        violation_gauge.set(window.violation_rate)
        anomaly_gauge.set(window.anomaly_rate)
        open_gauge.set(study.n_open)
        new_late = study.n_late_dropped - late_before
        if new_late:
            late_counter.inc(new_late)
            late_before = study.n_late_dropped
        sim_now = window.end_tick * interval_s
        sampler.sample(now=sim_now)
        report = monitor.evaluate(sampler, now=sim_now)
        events = monitor.alerts(last_seq)
        if events:
            last_seq = events[-1].seq
        alerts.extend(events)
        pure_windows.append(window)
        update = window.to_dict()
        update["status"] = report.status
        update["alerts"] = [e.to_dict() for e in events]
        windows.append(update)
        if on_window is not None:
            on_window(update)

    start = time.perf_counter()
    with get_tracer().span(
        "telemetry.watch", case=net.name, n_devices=n_devices, n_ticks=n_ticks
    ):
        with closing(runner.chunk_stream(net, ticks)) as outcomes:
            for outcome in outcomes:
                for result in outcome.results:
                    kinds, anomalies = drawn.pop(result.tags["tick"])
                    ticks_counter.inc()
                    for kind, count in kinds.items():
                        frames_counter.inc(count, kind=kind)
                    for kind, count in anomalies.items():
                        anomaly_frames.inc(count, kind=kind)
                    n_frames += sum(kinds.values())
                    n_anomaly_frames += sum(anomalies.values())
                    results_counter.inc()
                    for closed in study.add(result):
                        close_window(closed)
        for closed in study.finalize():
            close_window(closed)

    return {
        "case_name": net.name,
        "analysis": analysis,
        "n_devices": n_devices,
        "n_ticks": n_ticks,
        "n_frames": n_frames,
        "n_anomaly_frames": n_anomaly_frames,
        "interval_s": interval_s,
        "window_ticks": window_spec.size_ticks,
        "slide_ticks": window_spec.slide_ticks,
        "slice_by": list(window_spec.slice_by),
        "n_windows": len(windows),
        "windows": windows,
        "alerts": [e.to_dict() for e in alerts],
        "n_alerts": len(alerts),
        "n_late_dropped": study.n_late_dropped,
        "peak_open_windows": study.peak_open_windows,
        "digest": windows_digest(pure_windows),
        "anomaly": anomaly.to_dict() if anomaly is not None else None,
        "status": windows[-1]["status"] if windows else "ok",
        "runtime_s": round(time.perf_counter() - start, 3),
    }
