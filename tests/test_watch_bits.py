"""The watch's bits, pinned: golden digests and the bulk frame draws.

A tick's frames are drawn in bulk (``DeviceFleet.draw``): numpy's seed
hashing runs vectorised over the tick's frame seeds, and one reused
generator draws each frame's two normals.  These tests hold that to the
per-frame ``np.random.default_rng`` model bit for bit:

* golden ``run_watch`` digests and frame digests, recorded with the
  per-frame model, for small serial ieee14 and ieee57 watches — clean,
  under each anomaly kind, and under feeder-limited anomalies;
* a property over random seeds in ``[0, 2**32)``, both ends included: if
  numpy ever changes its ``SeedSequence`` or PCG64 seeding, this fails
  instead of the digests drifting silently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.grid.cases import load_case
from repro.telemetry import (
    AnomalySpec,
    DeviceFleet,
    FleetSpec,
    WatchRequest,
    frame_normals,
    run_watch,
)

#: Eight 3-hour ticks span a whole day: night, trough, daylight, peak.
_BASE = dict(n_devices=60, n_ticks=8, window_ticks=4, seed=5, interval_s=10800.0)
_ANOMALY = dict(anomaly_tick=2, anomaly_duration=3)
_WATCHES = {
    "clean": {},
    "load_spike": dict(_ANOMALY, anomaly_kind="load_spike"),
    "voltage_sag": dict(_ANOMALY, anomaly_kind="voltage_sag"),
    "dropout": dict(_ANOMALY, anomaly_kind="dropout"),
    "feeder_spike": dict(
        _ANOMALY, anomaly_kind="load_spike", anomaly_feeder="feeder_1",
        anomaly_magnitude=2.5,
    ),
    "feeder_dropout": dict(_ANOMALY, anomaly_kind="dropout", anomaly_feeder="feeder_2"),
    # Wide noise clamps some frames' noise factor at zero.
    "noisy": dict(sigma_percent=60.0, der_fraction=0.5),
}

#: (watch digest, frame digest, n_frames, n_anomaly_frames), recorded
#: with one ``default_rng`` per frame.
GOLDEN = {
    "ieee14/clean": ("bd2d4f2bfe771882", "e763e623d990f1bf", 480, 0),
    "ieee14/load_spike": ("56bc5b175b16c476", "949c76a17417a19e", 480, 180),
    "ieee14/voltage_sag": ("b13d36427ba2ac00", "cdcfaa98f59de126", 480, 180),
    "ieee14/dropout": ("39b2c4684c15b7a1", "c3d6f70f0f14f8d5", 300, 0),
    "ieee14/feeder_spike": ("c3cb4ce42d3d5f38", "b7d2782a2341dd01", 480, 21),
    "ieee14/feeder_dropout": ("c7246b62223c5bae", "8629f3ed8f2a698e", 408, 0),
    "ieee14/noisy": ("7fcab2784b4f32fe", "0396843a8e8a0f13", 480, 0),
    "ieee57/clean": ("234d1396782a4abc", "b982e770af6f628d", 480, 0),
    "ieee57/load_spike": ("f4508f6c0ac1270c", "0bbd90e10448e7fe", 480, 180),
    "ieee57/voltage_sag": ("362bdd9863555ea9", "0bdee143638931b5", 480, 180),
    "ieee57/dropout": ("02e9dd28a77f6827", "36c2083f9b260703", 300, 0),
    "ieee57/feeder_spike": ("8a731dc631408fee", "6f682979808dafd2", 480, 30),
    "ieee57/feeder_dropout": ("b3a31ff905429207", "bd46e065db44eb71", 417, 0),
    "ieee57/noisy": ("af3371bb4fa7f83c", "12e5b53448f7c026", 480, 0),
}


def _frames_digest(net, request: WatchRequest) -> str:
    """Digest of every frame (all fields, full precision) and every
    tick's bus factors over the watch's ticks."""
    anomalies = ()
    if request.anomaly_tick is not None:
        anomalies = (
            AnomalySpec(
                start_tick=request.anomaly_tick,
                duration_ticks=request.anomaly_duration,
                kind=request.anomaly_kind,
                feeder=request.anomaly_feeder,
                magnitude=request.anomaly_magnitude,
            ),
        )
    fleet = DeviceFleet(
        net,
        FleetSpec(
            n_devices=request.n_devices,
            seed=request.seed or 0,
            interval_s=request.interval_s,
            sigma=request.sigma_percent / 100.0,
            der_fraction=request.der_fraction,
            anomalies=anomalies,
        ),
    )
    rows = []
    for tick in range(request.n_ticks):
        frames = fleet.frames_for_tick(tick)
        rows.append([astuple(f) for f in frames])
        rows.append(sorted(fleet.tick_bus_factors(tick, frames).items()))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_watch(key):
    case, name = key.split("/")
    net = load_case(case)
    request = WatchRequest(case_name=case, **_BASE, **_WATCHES[name])
    out = run_watch(net, request)
    digest, frames_digest, n_frames, n_anomaly_frames = GOLDEN[key]
    assert out["digest"] == digest
    assert _frames_digest(net, request) == frames_digest
    assert out["n_frames"] == n_frames
    assert out["n_anomaly_frames"] == n_anomaly_frames


def _reference_pair(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(rng.standard_normal()), float(rng.standard_normal())]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
@example([0, 2**32 - 1])
@example([1, 2**31, 2**32 - 2])
def test_bulk_draws_equal_default_rng(seeds):
    got = frame_normals(seeds)
    assert got.shape == (len(seeds), 2)
    for seed, row in zip(seeds, got):
        want = np.array(_reference_pair(seed))
        assert row.tobytes() == want.tobytes(), seed


def test_bulk_draws_of_no_seeds():
    assert frame_normals([]).shape == (0, 2)


def test_one_device_draw_is_a_row_of_the_tick():
    """``frame`` reads the same per-tick path: a one-device draw equals
    that device's row of the whole tick, under every anomaly kind."""
    net = load_case("ieee14")
    for kind in ("load_spike", "voltage_sag", "dropout"):
        fleet = DeviceFleet(
            net,
            FleetSpec(
                n_devices=40, seed=8, anomalies=(
                    AnomalySpec(start_tick=3, kind=kind, feeder="feeder_0"),
                ),
            ),
        )
        tick = {f.device_id: f for f in fleet.frames_for_tick(3)}
        for device_id in range(fleet.n_devices):
            assert fleet.frame(device_id, 3) == tick.get(device_id)
