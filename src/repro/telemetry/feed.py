"""Telemetry feed: time-ordered frames adapted into the scenario contract.

:class:`TelemetryStream` is the bridge between the device fleet and the
study machinery.  It yields each tick's frame batch in time order
(optionally paced against the wall clock), and it adapts each tick's frame batch into one
:class:`~repro.scenarios.spec.Scenario` — a
:class:`~repro.scenarios.spec.PerBusLoadScale` carrying the fleet's
per-bus net draw, tagged with the tick's coordinates (tick, hour,
hottest feeder, anomaly flag) — so the batch runner, the sliced reducer,
and the rolling-window layer all consume telemetry through the exact
interfaces they already speak.

``scenarios()`` returns a real
:class:`~repro.scenarios.stream.ScenarioStream`: lazily generated,
re-iterable (every iteration regenerates the same scenarios, because a
tick's scenario is a pure function of the tick), with a known length —
the contract every existing consumer of scenario ensembles relies on.
"""

from __future__ import annotations

import time

from ..scenarios.spec import PerBusLoadScale, Scenario
from ..scenarios.stream import ScenarioStream
from .fleet import DeviceFleet, FrameBatch

PACE_SIMULATED = "simulated"
PACE_WALL = "wall"

#: Default wall-pacing compression: one 15-minute tick plays in 3 s.
DEFAULT_SPEEDUP = 300.0


class TelemetryStream:
    """A bounded view of the fleet's feed: ``n_ticks`` ticks of frames.

    ``pace="simulated"`` (default) yields as fast as the consumer can
    fold; ``pace="wall"`` sleeps ``interval_s / speedup`` between ticks,
    approximating a live feed for demos and the watch CLI.  Pacing only
    shapes delivery timing — the frames and scenarios themselves are
    identical under either mode.
    """

    def __init__(
        self,
        fleet: DeviceFleet,
        n_ticks: int,
        *,
        start_tick: int = 0,
        pace: str = PACE_SIMULATED,
        speedup: float = DEFAULT_SPEEDUP,
        family: str = "telemetry",
    ) -> None:
        if n_ticks < 1:
            raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
        if start_tick < 0:
            raise ValueError(f"start_tick must be >= 0, got {start_tick}")
        if pace not in (PACE_SIMULATED, PACE_WALL):
            raise ValueError(
                f"pace must be {PACE_SIMULATED!r} or {PACE_WALL!r}, got {pace!r}"
            )
        if speedup <= 0:
            raise ValueError(f"speedup must be > 0, got {speedup}")
        self.fleet = fleet
        self.n_ticks = n_ticks
        self.start_tick = start_tick
        self.pace = pace
        self.speedup = speedup
        self.family = family

    # ------------------------------------------------------------------
    def _pace_tick(self) -> None:
        if self.pace == PACE_WALL:
            time.sleep(self.fleet.spec.interval_s / self.speedup)

    def tick_batches(self):
        """Yield ``(tick, batch)`` in time order, pacing applied; each
        batch is the tick's :class:`~repro.telemetry.fleet.FrameBatch`."""
        for tick in range(self.start_tick, self.start_tick + self.n_ticks):
            self._pace_tick()
            yield tick, self.fleet.draw(tick)

    # ------------------------------------------------------------------
    def scenario_for_tick(self, tick: int, batch: FrameBatch | None = None) -> Scenario:
        """One tick's operating point as a plain :class:`Scenario`.

        Pure in ``tick``: re-deriving the scenario (on stream
        re-iteration, or from a late frame batch) always reproduces the
        same perturbation and tags.
        """
        fleet = self.fleet
        if batch is None:
            batch = fleet.draw(tick)
        factors = fleet.tick_bus_factors(tick, batch)
        # The feeder whose load deviates most from nominal this tick —
        # the telemetry analogue of the zonal generators' hot_zone tag.
        deviation: dict[str, list[float]] = {}
        zones = fleet._zones
        for bus, factor in factors.items():
            deviation.setdefault(zones[bus], []).append(abs(factor - 1.0))
        hot_feeder = ""
        if deviation:
            hot_feeder = max(
                sorted(deviation),
                key=lambda z: sum(deviation[z]) / len(deviation[z]),
            )
        n_expected = fleet.n_devices
        n_frames = batch.n_frames
        # A frame is absent only under a dropout, which leaves no frame
        # to carry its label: the missing frames are the flag.
        labels = {label for label in batch.anomalies() if label}
        if n_frames < n_expected:
            labels.add("dropout")
        tags = {
            "family": self.family,
            "tick": tick,
            "hour_of_day": int(fleet.hour_at(tick)),
            "feeder": hot_feeder,
            "anomaly": ",".join(sorted(labels)) if labels else "none",
            "n_frames": n_frames,
            "n_dropped": n_expected - n_frames,
        }
        return Scenario(
            name=f"{self.family}_{tick:06d}",
            perturbations=(PerBusLoadScale(tuple(factors.items())),),
            tags=tags,
        )

    def scenarios(self) -> ScenarioStream:
        """The feed as a lazy, re-iterable scenario ensemble."""

        def factory():
            for tick, batch in self.tick_batches():
                yield self.scenario_for_tick(tick, batch)

        return ScenarioStream(factory, length=self.n_ticks, family=self.family)
