#!/usr/bin/env python
"""Live telemetry watch: fleet -> rolling windows -> alert -> narration.

A bounded tour of the telemetry layer on the simulated clock:

* attach a 120-device simulated fleet (meters + DERs) to ieee14,
* inject one load-spike anomaly mid-feed (ticks 9-11, x2.5),
* stream 24 ticks through the rolling-window study (6 tumbling
  4-tick windows), printing each window's narration as it closes,
* show the anomaly surfacing as a CRIT alert on ``telemetry_anomaly_rate``
  and resolving once the feed is clean again,
* re-run the identical watch and verify the determinism digest matches
  bit for bit.

Run:  PYTHONPATH=src python examples/telemetry_watch.py
"""

from __future__ import annotations

from repro import load_case
from repro.llm.narration import narrate_watch, narrate_watch_window
from repro.telemetry import WatchRequest, run_watch

N_WINDOWS = 6
WINDOW_TICKS = 4


def watch_once(net, *, live: bool = False) -> dict:
    def on_window(update: dict) -> None:
        if live:
            print(narrate_watch_window(update, verbosity=1))

    request = WatchRequest(
        case_name=net.name,
        n_devices=120,
        n_ticks=N_WINDOWS * WINDOW_TICKS,
        window_ticks=WINDOW_TICKS,
        seed=7,
        anomaly_tick=9,
        anomaly_duration=3,
        anomaly_magnitude=2.5,
    )
    return run_watch(net, request, on_window=on_window)


def main() -> None:
    print("=" * 70)
    print(f"Watching ieee14: {N_WINDOWS} windows of {WINDOW_TICKS} ticks, "
          "one injected load spike")
    print("=" * 70)
    net = load_case("ieee14")
    out = watch_once(net, live=True)

    print()
    print(narrate_watch(out, verbosity=2))

    fired = [a for a in out["alerts"]
             if a["rule"] == "telemetry_anomaly_rate" and a["transition"] == "firing"]
    assert fired, "the injected anomaly must surface as an anomaly-rate alert"
    print(f"\nanomaly chain verified: {out['n_anomaly_frames']} flagged frames "
          f"-> window {next(w['index'] for w in out['windows'] if w['n_anomalous'])} "
          f"-> {fired[0]['rule']} went {fired[0]['status'].upper()}")

    replay = watch_once(net)
    assert replay["digest"] == out["digest"], "simulated-clock watches replay bit-for-bit"
    print(f"determinism: replay digest {replay['digest']} == first run "
          f"(peak open windows {out['peak_open_windows']})")


if __name__ == "__main__":
    main()
