"""Typed request/response envelopes for the :class:`GridMindService` API.

Every call that crosses the service boundary is a pydantic model, so a
transport layer (HTTP, websocket, queue) can serialise it verbatim and
the service validates inputs exactly the way the tool registry validates
tool arguments.  The envelopes deliberately carry only plain data — no
network objects, no solver state — mirroring the paper's principle that
agent boundaries exchange validated structured artefacts.
"""

from __future__ import annotations

import hashlib

from pydantic import BaseModel, ConfigDict, Field

from ..scenarios.aggregate import DEFAULT_SLICE_MAX_VALUES
from ..scenarios.generators import STUDY_FAMILY_KINDS

#: Scenario families the service can expand server-side (the shared
#: :func:`repro.scenarios.expand_study_kind` factory's vocabulary).
STUDY_KINDS = STUDY_FAMILY_KINDS


def derive_session_seed(service_seed: int, session_id: str) -> int:
    """Stable per-session seed from ``(service_seed, session_id)``.

    Hash-derived rather than counter-derived so a session's RNG stream
    depends only on its *name*, never on how many sessions were created
    before it — concurrent sessions stay individually reproducible
    regardless of creation order.
    """
    digest = hashlib.blake2b(
        f"{service_seed}\x1f{session_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest[:4], "big")


class AskRequest(BaseModel):
    """One conversational turn addressed to a named session."""

    model_config = ConfigDict(extra="forbid")

    session_id: str = Field(min_length=1, description="target session name")
    text: str = Field(min_length=1, description="natural-language request")
    create: bool = Field(
        default=True,
        description="create the session on first use instead of failing",
    )


class AskReply(BaseModel):
    """The service-level outcome of one turn (text + instrumentation)."""

    session_id: str
    turn: int = 0
    text: str
    agents: list[str] = Field(default_factory=list)
    ok: bool = True
    model: str = ""
    latency_virtual_s: float = 0.0
    wall_s: float = 0.0
    total_s: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    n_tool_calls: int = 0


class SessionUsage(BaseModel):
    """Cumulative resources a session has consumed (accounting counters).

    Mirrors :func:`repro.instrumentation.accounting.session_usage`:
    counts come from session-labelled registry counters, so the same
    numbers flow through Prometheus exposition and health snapshots.
    """

    turns: float = 0.0
    studies: float = 0.0
    chunks: float = 0.0
    scenarios: float = 0.0
    executor_seconds: float = 0.0


class SessionInfo(BaseModel):
    """Directory entry for one managed session."""

    session_id: str
    model: str
    seed: int
    n_turns: int = 0
    case_name: str | None = None
    usage: SessionUsage | None = None


class StudyRequest(BaseModel):
    """A declarative batch study submitted directly to the service.

    The same families the study agent exposes conversationally, minus the
    conversation: the service expands the family, routes it through the
    shared executor, and persists the result set when a store is attached.
    """

    model_config = ConfigDict(extra="forbid")

    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")
    kind: str = Field(default="monte_carlo", description=f"one of {STUDY_KINDS}")
    session_id: str | None = Field(
        default=None,
        description="session to bill this study's resource usage to "
        "(None = the unattributed '_direct' bucket)",
    )
    analysis: str = Field(default="powerflow")
    n_scenarios: int | None = Field(
        default=None,
        ge=1,
        le=20_000,
        description="draws (monte_carlo/lhs), steps (sweep/profile), cap (outage)",
    )
    lo_percent: float = Field(default=80.0, gt=0.0)
    hi_percent: float = Field(default=120.0, gt=0.0)
    sigma_percent: float = Field(default=5.0, ge=0.0, le=100.0)
    depth: int = Field(default=2, ge=1, le=3)
    seed: int = Field(default=0, ge=0)
    label: str = Field(default="", description="free-text tag kept in the store")
    n_zones: int = Field(
        default=0,
        ge=0,
        le=32,
        description="monte_carlo only: zonal correlated draws over this many "
        "contiguous bus zones (0 = independent per-load noise)",
    )
    rho_percent: float = Field(
        default=0.0,
        ge=-100.0,
        le=100.0,
        description="inter-zone load correlation, % (with n_zones >= 2)",
    )
    slice_by: list[str] | None = Field(
        default=None,
        description=(
            "tag dimensions for sliced aggregation ('hour_of_day', 'scale', "
            "'hot_zone' ...; aliases like 'hour'/'zone' accepted); None "
            "infers the family's natural dimension, [] disables slicing"
        ),
    )
    slice_max_values: int = Field(
        default=DEFAULT_SLICE_MAX_VALUES,
        ge=1,
        le=512,
        description="per-dimension cardinality cap (overflow folds into __other__)",
    )


class StudyReply(BaseModel):
    """Summary of a completed study plus its persistent store key.

    ``progress`` carries the incremental per-chunk checkpoints the
    streaming pipeline emitted while the study ran (thinned to a bounded
    sample, first and last always included), so transports can replay a
    study's delivery timeline without a live callback channel.
    """

    study_key: str | None = None
    case_name: str
    analysis: str
    study_kind: str
    n_scenarios: int
    n_jobs: int = 1
    runtime_s: float = 0.0
    #: Trace id of this study's span tree when the service ran with
    #: tracing enabled (``None`` otherwise); the full trace is exported
    #: as a ``<study_key>.trace`` sidecar when a store is attached.
    trace_id: str | None = None
    #: The resolved slice dimensions the study aggregated over (post
    #: alias normalisation and family inference); the cell tables live in
    #: ``summary["aggregate"]["slices"]``.
    slice_by: list[str] = Field(default_factory=list)
    summary: dict = Field(default_factory=dict)
    n_progress_events: int = 0
    progress: list[dict] = Field(default_factory=list)
    peak_resident_results: int | None = None


class WatchRequest(BaseModel):
    """A standing windowed telemetry study submitted to the service.

    The service attaches a simulated device fleet to the case, streams
    ``n_ticks`` telemetry ticks through the rolling-window layer, and
    reports every closed window (plus the alerts it fired) as a
    :class:`WatchUpdate`.  With ``pace="simulated"`` the run is fully
    deterministic in (seed, fleet spec); ``pace="wall"`` plays the feed
    against the wall clock for live demos.
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
        default=900.0, gt=0.0, description="simulated seconds per tick"
    )
    sigma_percent: float = Field(default=2.0, ge=0.0, le=100.0)
    der_fraction: float = Field(default=0.25, ge=0.0, le=1.0)
    seed: int | None = Field(
        default=None, ge=0,
        description="fleet seed (None = derived from the session id)",
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
        default=["feeder", "hour_of_day"],
        description="tag dimensions each window slices its aggregate by",
    )
    pace: str = Field(
        default="simulated", pattern="^(simulated|wall)$",
        description="'simulated' streams as fast as it folds; 'wall' paces "
        "ticks against the wall clock",
    )
    speedup: float = Field(
        default=300.0, gt=0.0,
        description="wall pacing compression (interval_s / speedup per tick)",
    )
    verbosity: int = Field(default=1, ge=0, le=2)


class WatchUpdate(BaseModel):
    """One closed window, streamed live and echoed in the reply."""

    index: int
    start_tick: int
    end_tick: int  # exclusive
    n_results: int = 0
    n_anomalous: int = 0
    violation_rate: float = 0.0
    anomaly_rate: float = 0.0
    status: str = "ok"
    alerts: list[dict] = Field(default_factory=list)
    narration: str = ""


class WatchReply(BaseModel):
    """Outcome of a bounded watch run: windows, alerts, determinism digest."""

    session_id: str
    case_name: str
    analysis: str
    n_devices: int
    n_ticks: int
    n_frames: int = 0
    n_anomaly_frames: int = 0
    window_ticks: int = 1
    slide_ticks: int = 1
    n_windows: int = 0
    n_alerts: int = 0
    n_late_dropped: int = 0
    peak_open_windows: int = 0
    #: sha256 digest over the pure per-window aggregates — two runs with
    #: the same seed and fleet spec agree on this bit-for-bit.
    digest: str = ""
    status: str = "ok"
    runtime_s: float = 0.0
    updates: list[WatchUpdate] = Field(default_factory=list)
    alerts: list[dict] = Field(default_factory=list)
    narration: str = ""


def thin_progress(events: list[dict], keep: int = 12) -> list[dict]:
    """Bounded, order-preserving sample of a progress-event trail.

    Keeps the first and last events and an even spread between, so a
    10k-scenario study's hundreds of checkpoints compress to a reply-
    sized timeline without losing the endpoints.
    """
    if keep < 2:
        raise ValueError(f"need to keep at least 2 events, got {keep}")
    if len(events) <= keep:
        return list(events)
    step = (len(events) - 1) / (keep - 1)
    picked = {round(i * step) for i in range(keep)}
    picked.add(len(events) - 1)
    return [events[i] for i in sorted(picked)]
