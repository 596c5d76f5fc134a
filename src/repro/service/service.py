"""GridMindService: the asyncio multi-session front door.

The paper frames GridMind as a *service* engineers talk to; this module
is the top of that stack.  One service owns

* many named :class:`~repro.core.session.GridMindSession` cores, each
  wrapped in a slot with an ``asyncio.Lock`` — turns addressed to the
  same session are serialised (a conversation is a sequence), while
  turns addressed to different sessions run concurrently on worker
  threads,
* one shared :class:`~repro.scenarios.executor.StudyExecutor`, so every
  batch study from every session lands on the same warm process pool,
* optionally one :class:`~repro.service.store.ResultStore`, so study
  result sets persist across sessions and process lifetimes.

Determinism: a session's RNG seed derives from ``(service seed, session
id)`` (:func:`~repro.service.api.derive_session_seed`), never from
creation order, and per-session serialisation means the reply stream of
a session is byte-identical to running the same turns through a
stand-alone ``GridMindSession`` with the derived seed — interleaving N
conversations cannot change any of their answers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..core.session import GridMindSession
from ..instrumentation.accounting import record_turn, session_scope, session_usage
from ..instrumentation.health import HealthMonitor, HealthReport, HealthRule
from ..instrumentation.metrics import get_metrics, render_prometheus
from ..instrumentation.rollup import MetricsSampler
from ..instrumentation.trace import Tracer, get_tracer, set_tracer
from ..scenarios.executor import StudyExecutor
from .api import (
    STUDY_KINDS,
    AskReply,
    AskRequest,
    SessionInfo,
    SessionUsage,
    StudyReply,
    StudyRequest,
    WatchReply,
    WatchRequest,
    WatchUpdate,
    derive_session_seed,
    thin_progress,
)
from .store import ResultStore


class SessionNotFound(KeyError):
    """The addressed session does not exist (and auto-create was off)."""


class ServiceClosed(RuntimeError):
    """The service has been shut down; no further requests are accepted."""


@dataclass
class _SessionSlot:
    """One managed session plus its turn-serialisation lock."""

    session_id: str
    session: GridMindSession
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    turns: int = 0

    def info(self) -> SessionInfo:
        return SessionInfo(
            session_id=self.session_id,
            model=self.session.model,
            seed=self.session.seed,
            n_turns=self.turns,
            case_name=self.session.context.case_name or None,
            usage=SessionUsage(**session_usage(self.session_id)),
        )


class GridMindService:
    """Async façade multiplexing many sessions over shared compute."""

    def __init__(
        self,
        *,
        model: str = "gpt-5-mini",
        seed: int = 0,
        max_workers: int = 2,
        store: ResultStore | None = None,
        store_dir: str | None = None,
        max_sessions: int = 128,
        trace: bool = False,
        retries: int = 0,
        health: bool = True,
        health_rules: list[HealthRule] | None = None,
        sample_interval_s: float = 5.0,
    ) -> None:
        if store is None and store_dir is not None:
            store = ResultStore(store_dir)
        self.model = model
        self.seed = seed
        self.store = store
        # ``trace=True`` installs a recording tracer process-wide for the
        # service's lifetime (restored on aclose): every layer down to
        # the pool workers emits spans, and traced studies export a
        # ``.trace`` sidecar next to their store payload.
        self._prev_tracer: Tracer | None = None
        if trace:
            self._prev_tracer = set_tracer(Tracer())
        self.tracer = get_tracer()
        # Started eagerly: the service construction thread is (normally)
        # the only thread alive, so workers fork before session turns
        # start running on to_thread workers — and the pool is warm for
        # the first study.
        self.executor = StudyExecutor(max_workers=max_workers, retries=retries).start()
        self.max_sessions = max_sessions
        self._slots: dict[str, _SessionSlot] = {}
        self._closed = False
        # Health layer: a rollup sampler feeding an SLO monitor.  The
        # sampler persists every snapshot to the store's health sidecar
        # (when a store is attached), so ``gridmind health``/``top`` can
        # evaluate the same series offline.  The background sampling task
        # starts lazily on the first async entry point — ``__init__`` is
        # sync and may run with no event loop at all.
        self._health_enabled = health
        self.sampler = MetricsSampler(interval_s=sample_interval_s, store=store)
        self.monitor = HealthMonitor(
            rules=tuple(health_rules) if health_rules is not None else ()
        )
        self._sampler_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def create_session(
        self, session_id: str | None = None, *, model: str | None = None
    ) -> SessionInfo:
        """Create (and register) a named session; id defaults to ``s<n>``."""
        self._check_open()
        if session_id is None:
            n = len(self._slots)
            while f"s{n:03d}" in self._slots:
                n += 1
            session_id = f"s{n:03d}"
        if session_id in self._slots:
            raise ValueError(f"session {session_id!r} already exists")
        if len(self._slots) >= self.max_sessions:
            raise RuntimeError(
                f"session limit reached ({self.max_sessions}); close one first"
            )
        session = GridMindSession(
            model=model or self.model,
            seed=derive_session_seed(self.seed, session_id),
            session_id=session_id,
            study_executor=self.executor,
            result_store=self.store,
        )
        self._slots[session_id] = _SessionSlot(session_id, session)
        return self._slots[session_id].info()

    def get_session(self, session_id: str) -> GridMindSession:
        slot = self._slots.get(session_id)
        if slot is None:
            raise SessionNotFound(f"no session {session_id!r}")
        return slot.session

    def close_session(self, session_id: str) -> None:
        if self._slots.pop(session_id, None) is None:
            raise SessionNotFound(f"no session {session_id!r}")

    def sessions(self) -> list[SessionInfo]:
        return [slot.info() for slot in self._slots.values()]

    # ------------------------------------------------------------------
    # conversational turns
    # ------------------------------------------------------------------
    async def ask(
        self, request: AskRequest | str, text: str | None = None
    ) -> AskReply:
        """Process one turn; concurrent calls interleave across sessions.

        Accepts either a validated :class:`AskRequest` envelope or the
        convenience form ``ask(session_id, text)``.
        """
        self._check_open()
        if not isinstance(request, AskRequest):
            if text is None:
                raise TypeError("ask(session_id, text) requires the text argument")
            request = AskRequest(session_id=request, text=text)
        slot = self._slots.get(request.session_id)
        if slot is None:
            if not request.create:
                raise SessionNotFound(f"no session {request.session_id!r}")
            self.create_session(request.session_id)
            slot = self._slots[request.session_id]

        # Serialise turns per session; the blocking solver/LLM work runs
        # on a thread so *other* sessions' turns proceed concurrently.
        # (asyncio.to_thread copies the contextvar context, so the span
        # opened here is the parent of everything the session records.)
        self._ensure_sampler_task()
        async with slot.lock:
            with get_tracer().span("service.ask", session_id=request.session_id):
                # The accounting scope travels with the copied contextvar
                # context into the worker thread, so every chunk the
                # study layer folds during this turn bills to the session.
                with session_scope(request.session_id):
                    record_turn()
                    reply = await asyncio.to_thread(slot.session.ask, request.text)
            slot.turns += 1
            turn = slot.turns
            record = slot.session.last_record

        return AskReply(
            session_id=request.session_id,
            turn=turn,
            text=reply.text,
            agents=reply.agents_involved,
            ok=record.success if record else True,
            model=slot.session.model,
            latency_virtual_s=reply.latency_s,
            wall_s=reply.wall_s,
            total_s=reply.latency_s + reply.wall_s,
            prompt_tokens=reply.usage.prompt_tokens,
            completion_tokens=reply.usage.completion_tokens,
            n_tool_calls=len(reply.tool_calls),
        )

    # ------------------------------------------------------------------
    # direct study submission (no conversation required)
    # ------------------------------------------------------------------
    async def run_study(self, request: StudyRequest, *, progress=None) -> StudyReply:
        """Expand and execute a study on the shared pool; persist if stored.

        ``progress`` (optional) receives a
        :class:`~repro.scenarios.runner.StudyProgress` per completed
        chunk, invoked from the study's worker thread — callers bridging
        to the event loop should use ``loop.call_soon_threadsafe``.  The
        reply additionally carries the (thinned) progress trail, so
        transports without a callback channel still see the timeline.
        """
        self._check_open()
        self._ensure_sampler_task()
        return await asyncio.to_thread(self._run_study_sync, request, progress)

    def _run_study_sync(
        self, request: StudyRequest, progress=None
    ) -> StudyReply:
        with session_scope(request.session_id):
            return self._run_study_inner(request, progress)

    def _run_study_inner(
        self, request: StudyRequest, progress=None
    ) -> StudyReply:
        from ..grid.cases import load_case
        from ..scenarios import BatchStudyRunner, expand_study_kind, resolve_slice_by

        if request.kind not in STUDY_KINDS:
            raise ValueError(
                f"unknown study kind {request.kind!r}; use one of {STUDY_KINDS}"
            )
        slice_by = resolve_slice_by(
            request.slice_by, request.kind, n_zones=request.n_zones
        )
        net = load_case(request.case_name)
        scenarios = expand_study_kind(
            request.kind,
            net,
            n_scenarios=request.n_scenarios,
            lo_percent=request.lo_percent,
            hi_percent=request.hi_percent,
            sigma_percent=request.sigma_percent,
            seed=request.seed,
            depth=request.depth,
            n_zones=request.n_zones,
            rho_percent=request.rho_percent,
        )
        events: list[dict] = []

        def on_chunk(p) -> None:
            events.append(p.to_dict())
            if progress is not None:
                progress(p)

        # The full record list is only retained when a store will persist
        # it; otherwise the study streams through the reducer and holds
        # O(in-flight window + worst-K + n_slices) results at peak.
        runner = BatchStudyRunner(
            analysis=request.analysis,
            executor=self.executor,
            slice_by=slice_by,
            slice_max_values=request.slice_max_values,
            ac_mode=request.ac_mode,
        )
        tracer = get_tracer()
        with tracer.span(
            "service.run_study", kind=request.kind, case=request.case_name
        ) as root:
            study = runner.run(
                net,
                scenarios,
                progress=on_chunk,
                keep_results=self.store is not None,
            )
            key = None
            if self.store is not None:
                key = self.store.put(
                    net,
                    runner.config(),
                    scenarios,
                    study,
                    study_kind=request.kind,
                    label=request.label,
                )
        trace_id = root.trace_id if tracer.enabled else None
        if key and trace_id:
            # Export after the root span closes so it is part of the
            # sidecar; the store resolves the key to the payload path.
            self.store.put_trace(key, tracer.spans(trace_id))
        summary = study.to_dict(max_scenarios=5)
        summary["study_kind"] = request.kind
        if key:
            summary["study_key"] = key
        if trace_id:
            summary["trace_id"] = trace_id
        return StudyReply(
            study_key=key,
            trace_id=trace_id,
            case_name=study.case_name,
            analysis=study.analysis,
            study_kind=request.kind,
            n_scenarios=study.n_scenarios,
            n_jobs=study.n_jobs,
            runtime_s=study.runtime_s,
            slice_by=list(slice_by),
            summary=summary,
            n_progress_events=len(events),
            progress=thin_progress(events),
            peak_resident_results=study.peak_resident_results,
        )

    # ------------------------------------------------------------------
    # standing windowed telemetry studies
    # ------------------------------------------------------------------
    async def watch(
        self, request: WatchRequest, *, on_update=None
    ) -> WatchReply:
        """Run a bounded telemetry watch: fleet -> windows -> alerts.

        ``on_update`` (optional) receives a narrated
        :class:`~repro.service.api.WatchUpdate` per closed window, invoked
        from the watch's worker thread as the window closes — the live
        streaming surface.  The reply echoes every update plus the alert
        log and the determinism digest.
        """
        self._check_open()
        self._ensure_sampler_task()
        return await asyncio.to_thread(self._watch_sync, request, on_update)

    def _watch_sync(self, request: WatchRequest, on_update=None) -> WatchReply:
        with session_scope(request.session_id):
            return self._watch_inner(request, on_update)

    def _watch_inner(self, request: WatchRequest, on_update=None) -> WatchReply:
        from ..grid.cases import load_case
        from ..llm.narration import narrate_watch, narrate_watch_window
        from ..telemetry import AnomalySpec, run_watch

        net = load_case(request.case_name)
        seed = (
            request.seed
            if request.seed is not None
            else derive_session_seed(self.seed, request.session_id)
        )
        anomaly = None
        if request.anomaly_tick is not None:
            anomaly = AnomalySpec(
                start_tick=request.anomaly_tick,
                duration_ticks=request.anomaly_duration,
                kind=request.anomaly_kind,
                feeder=request.anomaly_feeder,
                magnitude=request.anomaly_magnitude,
            )
        updates: list[WatchUpdate] = []

        def on_window(window: dict) -> None:
            update = WatchUpdate(
                index=window["index"],
                start_tick=window["start_tick"],
                end_tick=window["end_tick"],
                n_results=window["n_results"],
                n_anomalous=window["n_anomalous"],
                violation_rate=window["violation_rate"],
                anomaly_rate=window["anomaly_rate"],
                status=window["status"],
                alerts=window["alerts"],
                narration=narrate_watch_window(window, request.verbosity),
            )
            updates.append(update)
            if on_update is not None:
                on_update(update)

        with get_tracer().span(
            "service.watch",
            case=request.case_name,
            session_id=request.session_id,
        ):
            out = run_watch(
                net,
                n_devices=request.n_devices,
                n_ticks=request.n_ticks,
                window_ticks=request.window_ticks,
                slide_ticks=request.slide_ticks,
                seed=seed,
                interval_s=request.interval_s,
                sigma=request.sigma_percent / 100.0,
                der_fraction=request.der_fraction,
                anomaly=anomaly,
                analysis=request.analysis,
                slice_by=tuple(request.slice_by),
                pace=request.pace,
                speedup=request.speedup,
                on_window=on_window,
            )
        return WatchReply(
            session_id=request.session_id,
            case_name=out["case_name"],
            analysis=out["analysis"],
            n_devices=out["n_devices"],
            n_ticks=out["n_ticks"],
            n_frames=out["n_frames"],
            n_anomaly_frames=out["n_anomaly_frames"],
            window_ticks=out["window_ticks"],
            slide_ticks=out["slide_ticks"],
            n_windows=out["n_windows"],
            n_alerts=out["n_alerts"],
            n_late_dropped=out["n_late_dropped"],
            peak_open_windows=out["peak_open_windows"],
            digest=out["digest"],
            status=out["status"],
            runtime_s=out["runtime_s"],
            updates=updates,
            alerts=out["alerts"],
            narration=narrate_watch(out, request.verbosity),
        )

    async def compare_studies(
        self, ref_a: str | None = None, ref_b: str | None = None
    ) -> dict:
        """Diff two stored studies (defaults: the two most recent)."""
        self._check_open()
        if self.store is None:
            raise RuntimeError("service has no result store configured")
        return await asyncio.to_thread(self.store.compare, ref_a, ref_b)

    # ------------------------------------------------------------------
    # lifecycle and instrumentation
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Service-wide instrumentation: per-session summaries + executor."""
        return {
            "n_sessions": len(self._slots),
            "sessions": {
                sid: slot.session.metrics() for sid, slot in self._slots.items()
            },
            "executor": self.executor.stats(),
            "n_stored_studies": len(self.store) if self.store is not None else 0,
        }

    def metrics_text(self) -> str:
        """The process-wide metrics registry in Prometheus text exposition."""
        return render_prometheus(get_metrics())

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def _ensure_sampler_task(self) -> None:
        """Start the background sampling loop once, lazily.

        ``__init__`` is synchronous (and often runs without a loop), so
        the task is created the first time an async entry point executes
        inside a running loop.  No-op when health is disabled or the
        task is already alive.
        """
        if not self._health_enabled or self._closed:
            return
        if self._sampler_task is not None and not self._sampler_task.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        self._sampler_task = loop.create_task(
            self._sample_loop(), name="gridmind-health-sampler"
        )

    async def _sample_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.sampler.interval_s)
            try:
                self.sampler.sample()
                self.monitor.evaluate(self.sampler)
            except Exception:
                # The health loop must never take the service down; a
                # failed sample simply leaves a gap in the series.
                continue

    def health(self, *, sample: bool = True) -> HealthReport:
        """Evaluate the service's health rules right now.

        Takes a fresh snapshot first (so the report reflects this
        instant, not the last background tick) unless ``sample=False``,
        then evaluates through the monitor so alert transitions are
        recorded.  Works with or without the background task running.
        """
        if sample and self._health_enabled:
            self.sampler.sample()
        return self.monitor.evaluate(self.sampler)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("GridMindService is closed")

    async def aclose(self) -> None:
        """Shut down the shared pool and refuse further requests."""
        if self._closed:
            return
        self._closed = True
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except (asyncio.CancelledError, Exception):
                pass
            self._sampler_task = None
        if self._health_enabled:
            # Final snapshot so the persisted series covers the full
            # service lifetime (a short-lived service still leaves >= 1
            # sample per entry point that ran).
            try:
                self.sampler.sample()
            except Exception:
                pass
        if self._prev_tracer is not None:
            set_tracer(self._prev_tracer)
            self._prev_tracer = None
        await asyncio.to_thread(self.executor.shutdown)

    async def __aenter__(self) -> "GridMindService":
        self._ensure_sampler_task()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
