"""Deterministic simulated device fleet: meters and DERs on network buses.

The operational regime the paper points at — agents watching a live grid
— needs an unbounded telemetry source.  Real AMI feeds are not available
here, so this module simulates one with the same reproducibility
discipline the scenario engine uses: every device draws its static
attributes (bus, kind, nameplate) from a per-device seed derived exactly
like :func:`~repro.scenarios.stream.child_seed` derives per-scenario
seeds, and every frame draws its noise from a per-(device, tick) child of
that seed: the first two ``standard_normal()`` draws of
``np.random.default_rng(frame_seed(...))``.  Two consequences fall out by
construction:

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

A tick is drawn in bulk (:meth:`DeviceFleet.draw`): numpy's seed hashing
runs once over the tick's frame seeds as uint32 arrays
(:func:`frame_normals`), each frame's two normals come from one reused
generator set to that frame's PCG64 state, and noise, load, voltage and
the per-bus factors are array arithmetic in device order.  Every
operation is the one a per-frame ``default_rng`` and float loop would
do, so the frames are the same bits; single-frame reads
(:meth:`DeviceFleet.frame`) draw through the same path.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words hashed from the entropy words, then ``generate_state``.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed.

    ``seeds`` is a uint32 array; a seed below 2**32 is one entropy word,
    so the pool's other three words hash zeros.  Returns the four uint64
    words as columns.
    """
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zeros = np.zeros_like(seeds)
    pool = [hashmix(seeds)] + [hashmix(zeros) for _ in range(_POOL_SIZE - 1)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ u32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * u32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Each uint64 is two uint32 words read little-endian.
    return [words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)]


def frame_normals(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """The first two ``standard_normal()`` draws of
    ``np.random.default_rng(s)`` for every seed ``s`` in ``[0, 2**32)``,
    as an ``(n, 2)`` array.

    The seed hashing is vectorised (:func:`_seed_words`); PCG64's
    seeding (``inc = initseq << 1 | 1``; step; add ``initstate``; step)
    is two multiply-adds on Python ints; and one generator, set to each
    row's state through its public ``bit_generator.state``, draws the
    row's pair.  The generator is local to the call, so concurrent
    watches never share one.
    """
    seeds = np.asarray(seeds, dtype=np.uint32)
    out = np.empty((seeds.size, 2))
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    state = bitgen.state
    pcg = state["state"]
    draw = gen.standard_normal
    words = (w.tolist() for w in _seed_words(seeds))
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, *words):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bitgen.state = state
        draw(out=row)
    return out


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

    def active(self, tick: int) -> bool:
        return self.start_tick <= tick < self.start_tick + self.duration_ticks

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


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """One tick's frames as arrays in device order.

    Rows are the devices that reported: a dropout leaves its devices
    out.  ``anomaly_index`` holds each row's anomaly as a position in the
    fleet spec's ``anomalies`` (-1 for none).
    """

    fleet: DeviceFleet
    tick: int
    device_ids: np.ndarray
    load_mw: np.ndarray
    voltage_pu: np.ndarray
    anomaly_index: np.ndarray

    @property
    def n_frames(self) -> int:
        return int(self.device_ids.size)

    def kinds(self) -> list[str]:
        """Each row's device kind."""
        meter = self.fleet._meter[self.device_ids]
        return [METER if m else DER for m in meter.tolist()]

    def anomalies(self) -> list[str]:
        """Each row's anomaly kind (``""`` when unaffected)."""
        labels = [a.kind for a in self.fleet.spec.anomalies] + [""]
        return [labels[k] for k in self.anomaly_index.tolist()]

    def frames(self) -> list[TelemetryFrame]:
        """The rows as :class:`TelemetryFrame` records."""
        devices = self.fleet.devices
        tick = self.tick
        ts = tick * self.fleet.spec.interval_s
        out = []
        for device_id, load, voltage, label in zip(
            self.device_ids.tolist(),
            self.load_mw.tolist(),
            self.voltage_pu.tolist(),
            self.anomalies(),
        ):
            device = devices[device_id]
            out.append(
                TelemetryFrame(
                    device_id=device_id,
                    bus=device.bus,
                    feeder=device.feeder,
                    kind=device.kind,
                    tick=tick,
                    ts=ts,
                    load_mw=load,
                    voltage_pu=voltage,
                    anomaly=label,
                )
            )
        return out


class DeviceFleet:
    """The fleet: device attribute table plus the frame model.

    Construction is O(n_devices) (one small RNG draw per device); a
    frame costs O(1) with no cross-device or cross-tick state, which is
    what makes the prefix-stability and random-access guarantees in the
    module docstring hold.  :meth:`draw` is the frame model; every other
    frame accessor reads it.
    """

    def __init__(self, net: Network, spec: FleetSpec) -> None:
        if net.n_bus == 0:
            raise ValueError("cannot attach a fleet to an empty network")
        self.spec = spec
        self.n_bus = net.n_bus
        self._zones = net.bus_zones(DEFAULT_ZONE_BANDS)
        devices = [self._make_device(i) for i in range(spec.n_devices)]
        self._devices = devices
        # The device table as arrays, for whole-tick draws.
        self._bus = np.array([d.bus for d in devices], dtype=np.int64)
        self._meter = np.array([d.kind == METER for d in devices], dtype=bool)
        self._base_mw = np.array([d.base_mw for d in devices], dtype=float)
        self._feeder = np.array([d.feeder for d in devices])

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
    def draw(self, tick: int, device_ids: Sequence[int] | None = None) -> FrameBatch:
        """Every frame at ``tick`` (of ``device_ids`` only, if given), in
        device order: the frame model.

        Each device takes the first anomaly in the spec that covers it;
        a dropout emits no frame.  A frame's noise and voltage jitter are
        the first two normals of ``default_rng(frame_seed(seed, tick))``
        (:func:`frame_normals`); load is nominal draw times the diurnal
        shape (meters) or minus nameplate times the daylight bell (DERs),
        times ``max(0, 1 + sigma * noise)``.
        """
        spec = self.spec
        ids = (
            np.arange(self.n_devices)
            if device_ids is None
            else np.asarray(device_ids, dtype=np.int64)
        )
        which = np.full(ids.size, -1)
        for k, anomaly in enumerate(spec.anomalies):
            if anomaly.active(tick):
                hit = which < 0
                if anomaly.feeder is not None:
                    hit &= self._feeder[ids] == anomaly.feeder
                which[hit] = k
        dropped = [k for k, a in enumerate(spec.anomalies) if a.kind == "dropout"]
        if dropped:
            keep = ~np.isin(which, dropped)
            ids, which = ids[keep], which[keep]
        devices = self._devices
        z = frame_normals([frame_seed(devices[i].seed, tick) for i in ids.tolist()])
        hour = self.hour_at(tick)
        shape = diurnal_factor(hour, peak=spec.peak, trough=spec.trough)
        noise = 1.0 + spec.sigma * z[:, 0]
        noise = np.where(noise > 0.0, noise, 0.0)  # max(0.0, noise)
        base = self._base_mw[ids]
        load = np.where(self._meter[ids], base * shape, -base * solar_factor(hour)) * noise
        # Voltage dips with system stress: highest at the diurnal trough,
        # ~2% lower at peak, plus small measurement noise.
        stress = (shape - spec.trough) / max(spec.peak - spec.trough, 1e-9)
        voltage = 1.0 - 0.02 * stress + 0.003 * z[:, 1]
        for k, anomaly in enumerate(spec.anomalies):
            hit = which == k
            if anomaly.kind == "load_spike":
                load[hit] *= anomaly.magnitude
            elif anomaly.kind == "voltage_sag":
                voltage[hit] *= 1.0 - 0.05 * anomaly.magnitude
        return FrameBatch(self, tick, ids, load, voltage, which)

    def frame(self, device_id: int, tick: int) -> TelemetryFrame | None:
        """The frame device ``device_id`` emits at ``tick``.

        ``None`` means the device emitted nothing (a dropout anomaly) —
        absence is part of the model, not an error.
        """
        frames = self.draw(tick, [self._devices[device_id].device_id]).frames()
        return frames[0] if frames else None

    def frames_for_tick(self, tick: int) -> list[TelemetryFrame]:
        """All frames at one tick, in device order (dropouts omitted)."""
        return self.draw(tick).frames()

    # ------------------------------------------------------------------
    def tick_bus_factors(
        self, tick: int, frames: FrameBatch | list[TelemetryFrame] | None = None
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
        meters still reporting.  Both sums run over the frames in the
        order given (device order for a drawn tick), so on a tick where
        every device reports the factors are those of the full fleet bit
        for bit.
        """
        if frames is None:
            frames = self.draw(tick)
        if isinstance(frames, FrameBatch):
            ids, load = frames.device_ids, frames.load_mw
        else:
            ids = np.array([f.device_id for f in frames], dtype=np.int64)
            load = np.array([f.load_mw for f in frames], dtype=float)
        meters = ids[self._meter[ids]]
        base = np.zeros(self.n_bus)
        np.add.at(base, self._bus[meters], self._base_mw[meters])
        metered = np.zeros(self.n_bus, dtype=bool)
        metered[self._bus[meters]] = True
        at = self._bus[ids]
        live = metered[at]
        actual = np.zeros(self.n_bus)
        np.add.at(actual, at[live], load[live])
        buses = np.flatnonzero(metered)
        ratio = actual[buses] / base[buses]
        factors = np.where(ratio > 0.0, ratio, 0.0)  # max(0.0, ratio)
        return dict(zip(buses.tolist(), factors.tolist()))
