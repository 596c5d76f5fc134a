"""Typed request/response envelopes for the :class:`GridMindService` API.

Every call that crosses the service boundary is a pydantic model, so a
transport layer (HTTP, websocket, queue) can serialise it verbatim and
the service validates inputs exactly the way the tool registry validates
tool arguments.  The envelopes deliberately carry only plain data — no
network objects, no solver state — mirroring the paper's principle that
agent boundaries exchange validated structured artefacts.

The two request envelopes live beside the functions that read them:
:class:`StudyRequest` in :mod:`repro.scenarios.request` (read by
``expand_study_kind`` and ``run_study_request``, and re-exported here)
and ``WatchRequest`` in :mod:`repro.telemetry.watch` (read by
``run_watch``, and re-exported by :mod:`repro.service`).  The CLI and
the study agent build the same requests, so one request gives one
answer whichever front end asked.
"""

from __future__ import annotations

import hashlib

from pydantic import BaseModel, ConfigDict, Field

from ..scenarios.request import StudyRequest  # noqa: F401  (re-export)


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
