"""E17 — Ablation: telemetry ingest and rolling-window cost vs fleet and window.

The watch loop's cost has two separable parts: *ingest* (the fleet model
drawing each tick in bulk — the tick's frame seeds hashed as arrays, two
normals per frame from one reused generator, loads and voltages as array
arithmetic, no cross-device state) and the *windowed study* (one
powerflow per tick plus O(1) reducer folds per result, with a
whole-reducer eviction per closed window).  This benchmark measures
both across fleet sizes and window lengths:

* ingest — raw frames/second from :meth:`DeviceFleet.frames_for_tick`
  alone (no solver, no windows), which should scale linearly in fleet
  size and be independent of the window spec;
* watch — the full :func:`run_watch` loop (solve + fold + close +
  health evaluation) at each (fleet size, window length) point, reported
  as wall seconds and milliseconds per closed window.

The per-window cost should grow roughly linearly with the window length
(more ticks folded per close), while fleet size contributes only the
linear ingest term: the scenario adapter collapses any number of frames
into one per-bus factor map, so the solver's share is flat in fleet
size — that separation is the scalability claim worth guarding.
Determinism is asserted at the smallest point (two runs, identical
digests).

``GRIDMIND_E17_DEVICES`` scales the base fleet (default 100, so tier-1
collection stays fast; the committed table was recorded at 400) and
``GRIDMIND_E17_TICKS`` the feed length.
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
from repro.telemetry import DeviceFleet, FleetSpec, WatchRequest, run_watch

CASE = "ieee14"
BASE_DEVICES = int(os.environ.get("GRIDMIND_E17_DEVICES", "100"))
N_TICKS = int(os.environ.get("GRIDMIND_E17_TICKS", "16"))
FLEET_SIZES = (BASE_DEVICES // 4, BASE_DEVICES, 4 * BASE_DEVICES)
WINDOW_TICKS = (2, 4, 8)
SEED = 21


def _ingest_rate(fleet: DeviceFleet) -> float:
    """Frames/second of the pure fleet model (no solver, no windows)."""
    tick = time.perf_counter()
    n_frames = 0
    for t in range(N_TICKS):
        n_frames += len(fleet.frames_for_tick(t))
    wall = time.perf_counter() - tick
    return n_frames / wall if wall > 0 else float("inf")


def _watch_once(net, n_devices: int, window: int) -> dict:
    previous = set_metrics(MetricsRegistry())
    try:
        return run_watch(
            net,
            WatchRequest(
                case_name=net.name,
                n_devices=n_devices,
                n_ticks=N_TICKS,
                window_ticks=window,
                seed=SEED,
            ),
        )
    finally:
        set_metrics(previous)


def test_ablation_telemetry(benchmark):
    net = load_case(CASE)
    ingest: dict[int, float] = {}
    outcomes: dict[tuple[int, int], dict] = {}

    def _run_all():
        for n_devices in FLEET_SIZES:
            fleet = DeviceFleet(net, FleetSpec(n_devices=n_devices, seed=SEED))
            ingest[n_devices] = _ingest_rate(fleet)
            for window in WINDOW_TICKS:
                outcomes[(n_devices, window)] = _watch_once(net, n_devices, window)

    benchmark.pedantic(_run_all, rounds=1, iterations=1)

    # Determinism at the smallest point: a replay agrees bit for bit.
    smallest = (FLEET_SIZES[0], WINDOW_TICKS[0])
    replay = _watch_once(net, *smallest)
    assert replay["digest"] == outcomes[smallest]["digest"]

    for (n_devices, window), out in outcomes.items():
        assert out["n_windows"] == N_TICKS // window
        assert out["peak_open_windows"] <= 1  # tumbling: one reducer resident
        assert out["n_late_dropped"] == 0

    widths = [-9, -8, -7, -9, -13, -11, -11]
    lines = [
        fmt_row(
            ["devices", "window", "ticks", "frames", "ingest kf/s",
             "watch (s)", "ms/window"],
            widths,
        ),
        "-" * 78,
    ]
    for n_devices in FLEET_SIZES:
        for window in WINDOW_TICKS:
            out = outcomes[(n_devices, window)]
            lines.append(fmt_row(
                [
                    n_devices,
                    window,
                    N_TICKS,
                    out["n_frames"],
                    f"{ingest[n_devices] / 1e3:.1f}",
                    f"{out['runtime_s']:.3f}",
                    f"{1e3 * out['runtime_s'] / out['n_windows']:.1f}",
                ],
                widths,
            ))
    lines += [
        "",
        f"{CASE}, seed {SEED}, {N_TICKS} simulated-clock ticks per point | "
        "ingest = pure fleet frame generation (no solver); watch = full "
        "run_watch loop (powerflow per tick + rolling windows + health) | "
        "per-window cost tracks window length (ticks folded per close); "
        "fleet size adds only the linear ingest term — frames collapse into "
        "one per-bus factor map before the solver | tumbling windows keep "
        "exactly one reducer resident (peak_open_windows == 1)",
    ]
    emit(
        "ablation_telemetry",
        "E17 — Telemetry watch: ingest rate and per-window cost vs fleet "
        f"size and window length ({N_TICKS}-tick feed)",
        lines,
    )
