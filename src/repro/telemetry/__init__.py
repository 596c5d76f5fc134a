"""Live telemetry: simulated device fleet, windowed studies, watch loop.

The standing-workload vertical (ROADMAP: agents observing a continuous
grid rather than running one-shot studies):

* :mod:`repro.telemetry.fleet` — :class:`DeviceFleet`, a deterministic
  simulated meter/DER population with per-device child seeds (any prefix
  of the feed is reproducible at any fleet size) and injectable
  anomalies; each tick is drawn in bulk as one :class:`FrameBatch`,
* :mod:`repro.telemetry.feed` — :class:`TelemetryStream`, the adapter
  from timestamped frames to the :class:`~repro.scenarios.stream
  .ScenarioStream` contract, with simulated or wall-clock pacing,
* :mod:`repro.telemetry.window` — :class:`RollingWindowStudy`,
  tumbling/sliding windows of :class:`~repro.scenarios.aggregate
  .SlicedReducer`s with eviction (O(window + K) memory on an unbounded
  feed) plus the :func:`telemetry_rules` health glue,
* :mod:`repro.telemetry.watch` — :class:`WatchRequest`, the one flat
  description of a watch, and :func:`run_watch`, the one engine that
  runs it for ``gridmind watch``, the service and the study agent's
  watch tool; its ticks run through the batch runner's chunk stream, on
  a shared executor when one is given.

Quickstart::

    from repro import load_case
    from repro.telemetry import WatchRequest, run_watch

    out = run_watch(
        load_case("ieee14"),
        WatchRequest(
            case_name="ieee14", n_devices=200, n_ticks=24, window_ticks=4,
            seed=0, anomaly_tick=10, anomaly_duration=4,
        ),
    )
    print(out["n_windows"], out["n_alerts"], out["digest"])
"""

from .feed import PACE_SIMULATED, PACE_WALL, TelemetryStream
from .fleet import (
    ANOMALY_KINDS,
    DEFAULT_INTERVAL_S,
    AnomalySpec,
    DeviceFleet,
    FleetSpec,
    FrameBatch,
    TelemetryFrame,
    device_seed,
    frame_normals,
    frame_seed,
)
from .watch import WatchRequest, run_watch
from .window import (
    DEFAULT_WINDOW_SLICES,
    RollingWindowStudy,
    WindowResult,
    WindowSpec,
    telemetry_rules,
    windows_digest,
)

__all__ = [
    "ANOMALY_KINDS",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_WINDOW_SLICES",
    "PACE_SIMULATED",
    "PACE_WALL",
    "AnomalySpec",
    "DeviceFleet",
    "FleetSpec",
    "FrameBatch",
    "RollingWindowStudy",
    "TelemetryFrame",
    "TelemetryStream",
    "WatchRequest",
    "WindowResult",
    "WindowSpec",
    "device_seed",
    "frame_normals",
    "frame_seed",
    "run_watch",
    "telemetry_rules",
    "windows_digest",
]
