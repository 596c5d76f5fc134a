#!/usr/bin/env python
"""Tier-2 telemetry smoke: the watch pipeline end to end, verified.

Streams a simulated device fleet with one injected anomaly through the
rolling-window watch engine, then asserts the guarantees the telemetry
stack makes:

* window accounting adds up (every tick lands in exactly the expected
  number of windows; empty windows are emitted, none invented),
* the injected anomaly surfaces end to end: flagged frames -> window
  anomaly rate -> ``telemetry_anomaly_rate`` health rule -> CRIT alert
  -> resolution once the feed is clean again,
* memory stays bounded by the window spec, never the feed length,
* deterministic replay: a second identical run reproduces the digest
  and the alert sequence bit for bit, at two fleet sizes sharing a
  device prefix, and so does the same watch run on a 2-worker
  ``StudyExecutor``,
* a dropout (devices that stop reporting) flags its window too,
* ``gridmind watch --json`` with an injected anomaly exits 0, its
  payload round-trips, and its digest equals the digests of
  ``GridMindService.watch`` and of the study agent's ``watch_telemetry``
  tool for the same request: every front end builds one
  ``WatchRequest`` and runs it through ``run_watch``,
* the benchmark's watch (ieee118, 400 devices, 96 ticks, 4-tick windows,
  seed 0) reproduces the digest recorded in ``perfbench/references.json``
  bit for bit (the file is read, never written).

Exits nonzero on the first violated invariant.

Usage::

    PYTHONPATH=src python scripts/watch_smoke.py [n_devices]
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import sys
from pathlib import Path

from repro.core.agents.study_agent import build_study_registry
from repro.core.cli import main as cli_main
from repro.core.context import AgentContext
from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.scenarios.executor import StudyExecutor
from repro.service import GridMindService
from repro.telemetry import DeviceFleet, FleetSpec, WatchRequest, run_watch

N_TICKS = 16
WINDOW = 4
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def watch_once(net, n_devices: int, kind: str = "load_spike", executor=None) -> dict:
    set_metrics(MetricsRegistry())
    request = WatchRequest(
        case_name=net.name,
        n_devices=n_devices,
        n_ticks=N_TICKS,
        window_ticks=WINDOW,
        seed=13,
        anomaly_tick=5,
        anomaly_duration=3,
        anomaly_kind=kind,
        anomaly_magnitude=2.5,
    )
    return run_watch(net, request, executor=executor)


async def service_watch(request: WatchRequest) -> str:
    async with GridMindService(max_workers=1, health=False) as service:
        return (await service.watch(request)).digest


def main() -> int:
    n_devices = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    net = load_case("ieee14")

    out = watch_once(net, n_devices)
    print(
        f"watched ieee14: {out['n_frames']} frames, {out['n_windows']} windows, "
        f"{out['n_alerts']} alerts, digest {out['digest']}"
    )

    check(out["n_windows"] == N_TICKS // WINDOW, "every tumbling window closed")
    check(
        sum(w["n_results"] for w in out["windows"]) == N_TICKS,
        "every tick folded into exactly one tumbling window",
    )
    check(out["n_late_dropped"] == 0, "an in-order feed drops nothing")

    flagged = [w["index"] for w in out["windows"] if w["n_anomalous"]]
    check(flagged == [1], f"anomaly ticks 5-7 flag window 1 only ({flagged})")
    fired = [
        a for a in out["alerts"]
        if a["rule"] == "telemetry_anomaly_rate" and a["transition"] == "firing"
    ]
    check(
        bool(fired) and fired[0]["status"] == "crit",
        "injected anomaly fires the anomaly-rate rule CRIT",
    )
    check(
        any(
            a["rule"] == "telemetry_anomaly_rate" and a["transition"] == "resolved"
            for a in out["alerts"]
        ),
        "the alert resolves once the feed is clean again",
    )
    check(
        out["peak_open_windows"] <= 1,
        f"tumbling memory bounded by one open window ({out['peak_open_windows']})",
    )

    replay = watch_once(net, n_devices)
    check(replay["digest"] == out["digest"], "replay reproduces the digest")
    check(replay["alerts"] == out["alerts"], "replay reproduces the alert sequence")

    with StudyExecutor(max_workers=2) as executor:
        pooled = watch_once(net, n_devices, executor=executor)
        n_chunks = executor.stats()["n_chunks"]
    check(n_chunks == N_TICKS // WINDOW, f"the pooled watch ran {n_chunks} chunks on the pool")
    check(pooled["digest"] == out["digest"], "the pooled watch reproduces the digest")
    check(pooled["alerts"] == out["alerts"], "the pooled watch reproduces the alert sequence")

    dropout = watch_once(net, n_devices, kind="dropout")
    flagged = [w["index"] for w in dropout["windows"] if w["n_anomalous"]]
    check(flagged == [1], f"dropout ticks 5-7 flag window 1 only ({flagged})")
    check(
        any(
            a["rule"] == "telemetry_anomaly_rate" and a["transition"] == "firing"
            for a in dropout["alerts"]
        ),
        "the dropout fires the anomaly-rate rule",
    )

    bigger = watch_once(net, 4 * n_devices)
    check(
        bigger["digest"] == watch_once(net, 4 * n_devices)["digest"],
        "determinism holds at the larger fleet size too",
    )
    small_fleet = DeviceFleet(net, FleetSpec(n_devices=n_devices, seed=13))
    big_fleet = DeviceFleet(net, FleetSpec(n_devices=4 * n_devices, seed=13))
    check(
        all(
            small_fleet.frame(d, t) == big_fleet.frame(d, t)
            for t in range(3)
            for d in range(n_devices)
        ),
        "shared device prefix emits identical frames at both fleet sizes",
    )

    # One anomaly watch from the three front ends: the CLI, the service
    # and the study agent's tool (its anomaly takes the request defaults).
    set_metrics(MetricsRegistry())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(
            ["watch", "--case", "ieee14", "--devices", str(n_devices),
             "--ticks", "8", "--window", "4", "--seed", "13",
             "--anomaly-tick", "1", "--json"]
        )
    check(code == 0, "gridmind watch --json exits 0")
    doc = json.loads(stdout.getvalue())
    check(doc["n_windows"] == 2 and doc["digest"], "CLI JSON payload round-trips")
    served = asyncio.run(service_watch(WatchRequest(
        case_name="ieee14", n_devices=n_devices, n_ticks=8, window_ticks=4,
        seed=13, anomaly_tick=1,
    )))
    tool = json.loads(build_study_registry(AgentContext()).call(
        "watch_telemetry",
        {"case_name": "ieee14", "n_devices": n_devices, "n_windows": 2,
         "window_ticks": 4, "seed": 13, "anomaly_tick": 1},
    ))
    check(
        doc["digest"] == served == tool["digest"],
        f"CLI, service and agent anomaly watches share one digest ({doc['digest']})",
    )

    # The benchmark's watch, against its recorded digest.
    reference = json.loads(REFERENCES.read_text())["ensemble"]["0"]["watch"]
    set_metrics(MetricsRegistry())
    bench = run_watch(
        load_case("ieee118"),
        WatchRequest(
            case_name="ieee118", n_devices=400, n_ticks=96, window_ticks=4, seed=0
        ),
    )
    check(
        bench["digest"] == reference,
        f"the ieee118 benchmark watch keeps its recorded digest ({bench['digest']})",
    )

    print("\nwatch smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
