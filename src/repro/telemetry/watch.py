"""The watch engine: fleet -> feed -> rolling windows -> health -> alerts.

:class:`WatchRequest` is the one flat description of a watch, and
:func:`run_watch` the one synchronous loop that reads it, for every
front end: the ``gridmind watch`` CLI and the study agent's watch tool
build a request from their own arguments, and the service takes one as
its envelope.  ``run_watch`` builds the fleet and its anomaly from the
request once, so the same request gives the same digest whichever front
end asked.  The parent synthesises each tick's frames and
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
from typing import Callable

from pydantic import BaseModel, ConfigDict, Field

from ..grid.network import Network
from ..instrumentation.health import AlertEvent, HealthMonitor
from ..instrumentation.metrics import get_metrics
from ..instrumentation.rollup import MetricsSampler
from ..instrumentation.trace import get_tracer
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


class WatchRequest(BaseModel):
    """A standing windowed telemetry study: fleet, feed, windows, anomaly.

    The one flat description of a watch: the service takes it as an
    envelope, the ``gridmind watch`` CLI builds one from its flags, and
    the study agent's watch tool maps its arguments onto one.  With
    ``pace="simulated"`` the run is fully deterministic in (seed, fleet
    spec); ``pace="wall"`` plays the feed against the wall clock for
    live demos.
    """

    model_config = ConfigDict(extra="forbid")

    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee14'")
    session_id: str = Field(
        default="watch", min_length=1,
        description="session to bill and label this watch under",
    )
    analysis: str = Field(default="powerflow")
    n_devices: int = Field(
        default=500, ge=1, le=2_000_000,
        description="simulated meters/DERs attached to the case's buses",
    )
    n_ticks: int = Field(
        default=24, ge=1, le=100_000, description="telemetry ticks to stream"
    )
    window_ticks: int = Field(default=4, ge=1, description="rolling window size")
    slide_ticks: int | None = Field(
        default=None, ge=1,
        description="window slide (None = tumbling; must divide window_ticks)",
    )
    interval_s: float = Field(
        default=DEFAULT_INTERVAL_S, gt=0.0, description="simulated seconds per tick"
    )
    sigma_percent: float = Field(default=2.0, ge=0.0, le=100.0)
    der_fraction: float = Field(default=0.25, ge=0.0, le=1.0)
    seed: int | None = Field(
        default=None, ge=0,
        description="fleet seed (None = derived from the session id by the "
        "service; 0 elsewhere)",
    )
    anomaly_tick: int | None = Field(
        default=None, ge=0,
        description="inject an anomaly starting at this tick (None = clean feed)",
    )
    anomaly_duration: int = Field(default=2, ge=1)
    anomaly_kind: str = Field(default="load_spike")
    anomaly_feeder: str | None = Field(
        default=None, description="limit the anomaly to one feeder label"
    )
    anomaly_magnitude: float = Field(default=1.8, gt=0.0)
    slice_by: list[str] = Field(
        default=list(DEFAULT_WINDOW_SLICES),
        description="tag dimensions each window slices its aggregate by",
    )
    pace: str = Field(
        default=PACE_SIMULATED, pattern="^(simulated|wall)$",
        description="'simulated' streams as fast as it folds; 'wall' paces "
        "ticks against the wall clock",
    )
    speedup: float = Field(
        default=DEFAULT_SPEEDUP, gt=0.0,
        description="wall pacing compression (interval_s / speedup per tick)",
    )
    verbosity: int = Field(default=1, ge=0, le=2)


def run_watch(
    net: Network,
    request: WatchRequest,
    *,
    on_window: Callable[[dict], None] | None = None,
    executor: StudyExecutor | None = None,
) -> dict:
    """Run the bounded watch ``request`` describes on ``net``; return its
    full, JSON-ready outcome.

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
    interval_s = request.interval_s
    anomaly = None
    if request.anomaly_tick is not None:
        anomaly = AnomalySpec(
            start_tick=request.anomaly_tick,
            duration_ticks=request.anomaly_duration,
            kind=request.anomaly_kind,
            feeder=request.anomaly_feeder,
            magnitude=request.anomaly_magnitude,
        )
    fleet_spec = FleetSpec(
        n_devices=request.n_devices,
        seed=request.seed or 0,
        interval_s=interval_s,
        sigma=request.sigma_percent / 100.0,
        der_fraction=request.der_fraction,
        anomalies=(anomaly,) if anomaly is not None else (),
    )
    fleet = DeviceFleet(net, fleet_spec)
    n_ticks = request.n_ticks
    stream = TelemetryStream(fleet, n_ticks, pace=request.pace, speedup=request.speedup)
    window_spec = WindowSpec(
        size_ticks=request.window_ticks,
        slide_ticks=request.slide_ticks,
        slice_by=tuple(request.slice_by),
    )
    study = RollingWindowStudy(window_spec)
    runner = BatchStudyRunner(
        StudyConfig(analysis=request.analysis, ac_mode="cold"),
        chunk_size=window_spec.slide_ticks,
        executor=executor,
    )
    # Frame counts of each drawn tick, by device kind and by anomaly,
    # held until the tick's result is folded.
    drawn: dict[int, tuple[Counter, Counter]] = {}

    def feed():
        for tick, batch in stream.tick_batches():
            drawn[tick] = (
                Counter(batch.kinds()),
                Counter(label for label in batch.anomalies() if label),
            )
            yield stream.scenario_for_tick(tick, batch)

    ticks = ScenarioStream(feed, length=n_ticks, family=stream.family)

    registry = get_metrics()
    # A dedicated sampler/monitor pair on simulated time: the service's
    # wall-clock sampler keeps its own cadence, while alert evaluation
    # here must be a pure function of the feed for replay determinism.
    sampler = MetricsSampler(interval_s=max(interval_s, 1e-6), max_samples=720)
    monitor = HealthMonitor(rules=tuple(telemetry_rules()))

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
        "telemetry.watch", case=net.name, n_devices=request.n_devices, n_ticks=n_ticks
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
        "analysis": request.analysis,
        "n_devices": request.n_devices,
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
