"""Deterministic simulated device fleet: meters and DERs on network buses.

The operational regime the paper points at — agents watching a live grid
— needs an unbounded telemetry source.  Real AMI feeds are not available
here, so this module simulates one with the same reproducibility
discipline the scenario engine uses: every device draws its static
attributes (bus, kind, nameplate) from a per-device seed derived exactly
like :func:`~repro.scenarios.stream.child_seed` derives per-scenario
seeds, and every frame draws its noise from a per-(device, tick) child of
that seed.  Two consequences fall out by construction:

* **prefix stability** — device ``i`` emits the identical frame stream
  whether the fleet has a thousand devices or a million, because nothing
  about a device depends on the fleet size;
* **random access** — any (device, tick) frame is computable without
  generating the frames before it, so replays, late reads, and windowed
  re-reads all agree bit-for-bit.

Load follows the same diurnal cosine the scenario generators' daily
profile uses (trough near 04:00, peak near 16:00); DER output follows a
daylight bell.  Anomalies are *injected*, never drawn: an
:class:`AnomalySpec` names a tick range and optional feeder, and the
affected frames are flagged so detection can be asserted end to end.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ..grid.network import DEFAULT_ZONE_BANDS, Network

#: One telemetry tick defaults to a 15-minute AMI reporting interval.
DEFAULT_INTERVAL_S = 900.0

METER = "meter"
DER = "der"

ANOMALY_KINDS = ("load_spike", "voltage_sag", "dropout")


def device_seed(fleet_seed: int, device_id: int) -> int:
    """Stable per-device seed, independent of fleet size.

    Same construction as :func:`~repro.scenarios.stream.child_seed`
    (blake2b over ``"{seed}\\x1f{index}"``): adding devices never
    perturbs the streams of existing ones.
    """
    digest = hashlib.blake2b(
        f"{fleet_seed}\x1f{device_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest[:4], "big")


def frame_seed(dev_seed: int, tick: int) -> int:
    """Per-(device, tick) seed: any frame is computable in isolation."""
    digest = hashlib.blake2b(f"{dev_seed}\x1f{tick}".encode(), digest_size=8).digest()
    return int.from_bytes(digest[:4], "big")


def diurnal_factor(hour: float, *, peak: float, trough: float) -> float:
    """Demand shape used by the scenario generators' daily profile:
    cosine with its trough at 04:00 and peak twelve hours later."""
    shape = 0.5 * (1.0 - math.cos(2.0 * math.pi * (hour - 4.0) / 24.0))
    return trough + (peak - trough) * shape


def solar_factor(hour: float) -> float:
    """Daylight bell for DER output: zero outside 06:00-18:00."""
    if not 6.0 <= hour <= 18.0:
        return 0.0
    return math.sin(math.pi * (hour - 6.0) / 12.0)


@dataclass(frozen=True)
class AnomalySpec:
    """One injected anomaly: a tick range, a target, and a magnitude.

    ``kind`` selects the effect: ``load_spike`` multiplies affected
    meters' load by ``magnitude``; ``voltage_sag`` scales affected
    frames' voltage by ``1 - 0.05 * magnitude``; ``dropout`` suppresses
    the frames entirely.  ``feeder`` limits the blast radius to one
    feeder label (``None`` = the whole fleet).
    """

    start_tick: int
    duration_ticks: int = 1
    kind: str = "load_spike"
    feeder: str | None = None
    magnitude: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(
                f"unknown anomaly kind {self.kind!r}; use one of {ANOMALY_KINDS}"
            )
        if self.start_tick < 0:
            raise ValueError(f"start_tick must be >= 0, got {self.start_tick}")
        if self.duration_ticks < 1:
            raise ValueError(
                f"duration_ticks must be >= 1, got {self.duration_ticks}"
            )
        if self.magnitude <= 0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude}")

    def covers(self, tick: int, feeder: str) -> bool:
        if not self.start_tick <= tick < self.start_tick + self.duration_ticks:
            return False
        return self.feeder is None or self.feeder == feeder

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start_tick": self.start_tick,
            "duration_ticks": self.duration_ticks,
            "feeder": self.feeder,
            "magnitude": self.magnitude,
        }


@dataclass(frozen=True)
class FleetSpec:
    """Static description of one simulated fleet (plain data, hashable)."""

    n_devices: int
    seed: int = 0
    interval_s: float = DEFAULT_INTERVAL_S
    sigma: float = 0.02  # per-frame relative load noise
    der_fraction: float = 0.25  # expected fraction of devices that are DERs
    peak: float = 1.15  # diurnal demand peak factor
    trough: float = 0.70
    anomalies: tuple[AnomalySpec, ...] = ()

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.der_fraction <= 1.0:
            raise ValueError(
                f"der_fraction must be in [0, 1], got {self.der_fraction}"
            )
        if not 0 < self.trough <= self.peak:
            raise ValueError(
                f"need 0 < trough <= peak, got trough={self.trough} peak={self.peak}"
            )


@dataclass(frozen=True)
class TelemetryFrame:
    """One device reading at one tick."""

    device_id: int
    bus: int
    feeder: str
    kind: str  # METER | DER
    tick: int
    ts: float  # simulated epoch seconds (tick * interval_s)
    load_mw: float  # signed: meters draw (+), DERs inject (-)
    voltage_pu: float
    anomaly: str = ""  # anomaly kind when this frame is affected

    def to_dict(self) -> dict:
        out = {
            "device_id": self.device_id,
            "bus": self.bus,
            "feeder": self.feeder,
            "kind": self.kind,
            "tick": self.tick,
            "ts": self.ts,
            "load_mw": round(self.load_mw, 6),
            "voltage_pu": round(self.voltage_pu, 5),
        }
        if self.anomaly:
            out["anomaly"] = self.anomaly
        return out


@dataclass(frozen=True)
class _Device:
    """Static per-device attributes, all derived from the device seed."""

    device_id: int
    bus: int
    feeder: str
    kind: str
    base_mw: float  # meter: nominal draw; DER: nameplate capacity
    seed: int


class DeviceFleet:
    """The fleet: device attribute table plus the frame model.

    Construction is O(n_devices) (one small RNG draw per device); frame
    generation is O(1) per frame with no cross-device or cross-tick
    state, which is what makes the prefix-stability and random-access
    guarantees in the module docstring hold.
    """

    def __init__(self, net: Network, spec: FleetSpec) -> None:
        if net.n_bus == 0:
            raise ValueError("cannot attach a fleet to an empty network")
        self.spec = spec
        self.n_bus = net.n_bus
        self._zones = net.bus_zones(DEFAULT_ZONE_BANDS)
        self._devices = [self._make_device(i) for i in range(spec.n_devices)]

    def _make_device(self, device_id: int) -> _Device:
        seed = device_seed(self.spec.seed, device_id)
        rng = np.random.default_rng(seed)
        bus = int(rng.integers(0, self.n_bus))
        kind = DER if rng.random() < self.spec.der_fraction else METER
        # Meters draw 50-500 kW nominal; DER nameplates run 50-300 kW.
        if kind == METER:
            base = 0.05 + 0.45 * float(rng.random())
        else:
            base = 0.05 + 0.25 * float(rng.random())
        return _Device(
            device_id=device_id,
            bus=bus,
            feeder=self._zones[bus],
            kind=kind,
            base_mw=base,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def n_devices(self) -> int:
        return self.spec.n_devices

    @property
    def devices(self) -> list[_Device]:
        return self._devices

    def hour_at(self, tick: int) -> float:
        return (tick * self.spec.interval_s / 3600.0) % 24.0

    # ------------------------------------------------------------------
    def _anomaly_for(self, device: _Device, tick: int) -> AnomalySpec | None:
        for spec in self.spec.anomalies:
            if spec.covers(tick, device.feeder):
                return spec
        return None

    def frame(self, device_id: int, tick: int) -> TelemetryFrame | None:
        """The frame device ``device_id`` emits at ``tick``.

        ``None`` means the device emitted nothing (a dropout anomaly) —
        absence is part of the model, not an error.
        """
        device = self._devices[device_id]
        anomaly = self._anomaly_for(device, tick)
        if anomaly is not None and anomaly.kind == "dropout":
            return None
        spec = self.spec
        rng = np.random.default_rng(frame_seed(device.seed, tick))
        hour = self.hour_at(tick)
        noise = max(0.0, 1.0 + spec.sigma * float(rng.standard_normal()))
        if device.kind == METER:
            shape = diurnal_factor(hour, peak=spec.peak, trough=spec.trough)
            load = device.base_mw * shape * noise
        else:
            load = -device.base_mw * solar_factor(hour) * noise
        # Voltage dips with system stress: highest at the diurnal trough,
        # ~2% lower at peak, plus small measurement noise.
        stress = (
            diurnal_factor(hour, peak=spec.peak, trough=spec.trough) - spec.trough
        ) / max(spec.peak - spec.trough, 1e-9)
        voltage = 1.0 - 0.02 * stress + 0.003 * float(rng.standard_normal())
        label = ""
        if anomaly is not None:
            label = anomaly.kind
            if anomaly.kind == "load_spike":
                load *= anomaly.magnitude
            elif anomaly.kind == "voltage_sag":
                voltage *= 1.0 - 0.05 * anomaly.magnitude
        return TelemetryFrame(
            device_id=device.device_id,
            bus=device.bus,
            feeder=device.feeder,
            kind=device.kind,
            tick=tick,
            ts=tick * spec.interval_s,
            load_mw=load,
            voltage_pu=voltage,
            anomaly=label,
        )

    def frames_for_tick(self, tick: int) -> list[TelemetryFrame]:
        """All frames at one tick, in device order (dropouts omitted)."""
        frames = []
        for device_id in range(self.n_devices):
            frame = self.frame(device_id, tick)
            if frame is not None:
                frames.append(frame)
        return frames

    # ------------------------------------------------------------------
    def tick_bus_factors(
        self, tick: int, frames: list[TelemetryFrame] | None = None
    ) -> dict[int, float]:
        """Per-bus net load factor this tick, relative to meter nominal.

        The factor a bus's case loads should be scaled by to reflect the
        fleet's current draw: (meter draw + DER injection) over the
        nominal base of the bus's meters *that reported this tick*.  DER
        injection can push a bus negative; the factor clamps at zero (net
        export beyond the case load is out of scope for the load-scaling
        adapter).  Buses with no reporting meter are omitted, so their
        case loads stay untouched: a dropout hides a bus's draw rather
        than zeroing it, and a partial dropout rescales the bus by the
        meters still reporting.  On a tick where every device reports,
        each base sums the same meters in the same order, so the factors
        are those of the full fleet bit for bit.
        """
        if frames is None:
            frames = self.frames_for_tick(tick)
        devices = self._devices
        base: dict[int, float] = {}
        for frame in frames:
            if frame.kind == METER:
                base[frame.bus] = (
                    base.get(frame.bus, 0.0) + devices[frame.device_id].base_mw
                )
        actual: dict[int, float] = {}
        for frame in frames:
            if frame.bus in base:
                actual[frame.bus] = actual.get(frame.bus, 0.0) + frame.load_mw
        return {
            bus: max(0.0, actual.get(bus, 0.0) / base_mw)
            for bus, base_mw in sorted(base.items())
        }
