"""StudyExecutor: the one process-pool dispatcher for batch studies.

Every pooled study reaches its workers through :class:`StudyExecutor`.
The service layer owns one long-lived executor shared by every session,
so back-to-back studies reuse warm workers;
:class:`~repro.scenarios.runner.BatchStudyRunner` with ``n_jobs > 1`` and
no injected executor creates an ephemeral one for the length of one
``run()``.  Studies that stay in-process never touch this module's pool.

This module owns dispatch geometry: :func:`default_chunk_size` and
:meth:`StudyExecutor.dispatch_plan` decide how a stream is chunked and
how many chunks may be in flight, :func:`iter_chunks` draws the chunks,
and :func:`_execute_chunk` evaluates one inside a worker.

Worker-side state is content-addressed.  Each worker process keeps a
small LRU of :class:`~repro.scenarios.runner._WorkerState` instances
keyed by ``(network content hash, study config)``; a chunk task carries
the pickled base network, but a worker unpickles it only the first time
it sees that study key — subsequent chunks of the same study (and
re-runs of an identical study) reuse the resident state, including its
PTDF/LODF factor cache and contingency cache.  The parent likewise
pickles the base network once per study, not once per chunk.

Determinism: chunks are submitted and collected in scenario order and
evaluated by the exact same ``_WorkerState`` code path the in-process
loop uses, so pooled and serial studies produce identical result lists.

Dispatch is *streaming*: :meth:`StudyExecutor.run_study_chunks` draws
chunks lazily from the scenario stream with a bounded in-flight window
(backpressure against the pool) and yields completed chunks in order,
so a 10k-scenario ensemble flows through the parent process without
ever materialising — the consumer folds each chunk into an online
reducer and drops it.  :meth:`~StudyExecutor.run_study` keeps the
materialised list shape for callers that want it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import pickle
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from ..contingency.cache import network_content_hash
from ..grid.network import Network
from ..instrumentation.metrics import (
    MetricsRegistry,
    get_metrics,
    set_metrics,
    state_delta,
)
from ..instrumentation.trace import current_trace_context, worker_trace
from .spec import Scenario
from .stream import stream_length

if TYPE_CHECKING:
    from .runner import ScenarioResult, StudyConfig, _WorkerState

#: Chunk-size ceiling (also the size used when the stream's length is
#: unknown).  The ~4-chunks-per-worker split is capped here so the
#: in-flight window's worst-case resident results stay O(window x
#: constant) however large the ensemble — an uncapped split would make
#: chunk (and therefore streamed peak memory) scale with n.
DEFAULT_STREAM_CHUNK = 32


def default_chunk_size(total: int | None, n_jobs: int) -> int:
    """~4 chunks per worker for sized ensembles, capped at the stream stride."""
    if total is None:
        return DEFAULT_STREAM_CHUNK
    return max(1, min(math.ceil(total / (max(1, n_jobs) * 4)), DEFAULT_STREAM_CHUNK))


def iter_chunks(
    scenarios: Iterable[Scenario], chunk: int
) -> Iterator[list[Scenario]]:
    """Order-preserving dispatch chunks drawn lazily from the stream."""
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    it = iter(scenarios)
    while batch := list(itertools.islice(it, chunk)):
        yield batch


@dataclass
class ChunkOutcome:
    """One evaluated chunk plus its observability payload.

    What both execution paths (in-process loop, executor) yield to the
    runner's fold loop: the results themselves, the worker's identity and
    wall time (surfaced on ``StudyProgress``), the finished span dicts
    recorded inside the worker (stitched into the parent trace via
    :meth:`~repro.instrumentation.trace.Tracer.adopt`), and the
    worker-local metrics delta (folded into the parent registry via
    :meth:`~repro.instrumentation.metrics.MetricsRegistry.merge_state`).
    """

    results: list[ScenarioResult]
    worker_pid: int = 0
    wall_s: float = 0.0
    spans: list[dict] = field(default_factory=list)
    metrics: dict | None = None


# ----------------------------------------------------------------------
# worker-side plumbing (runs inside pool processes)
# ----------------------------------------------------------------------


def _execute_chunk(
    state: _WorkerState,
    scenarios: list[Scenario],
    trace_ctx: tuple[str, str] | None,
    collect_metrics: bool,
) -> ChunkOutcome:
    """Evaluate one chunk inside a worker process, instrumented.

    ``trace_ctx`` is the dispatcher's serialised span context (``None``
    for untraced studies — the worker then pays only this check): a
    private chunk tracer is activated under it, so the ``worker.chunk``
    span and everything beneath (scenario, solver) reparent correctly
    once adopted.  ``collect_metrics`` ships the worker-local
    counter/histogram delta for this chunk back to the parent.
    """
    tick = time.perf_counter()
    # Mirror the dispatcher's collection flag regardless of what registry
    # this worker inherited at fork time: a worker forked during an
    # untraced study must still collect for a later metered one, and with
    # collection off the increments should no-op rather than accumulate
    # into a registry nobody will ever drain.
    previous = None
    if collect_metrics != get_metrics().enabled:
        previous = set_metrics(MetricsRegistry(enabled=collect_metrics))
    before = get_metrics().state() if collect_metrics else None
    try:
        with worker_trace(trace_ctx) as tracer:
            with tracer.span("worker.chunk", n_scenarios=len(scenarios)):
                results = state.run_chunk(scenarios)
        delta = (
            state_delta(get_metrics().state(), before)
            if collect_metrics
            else None
        )
    finally:
        if previous is not None:
            set_metrics(previous)
    return ChunkOutcome(
        results=results,
        worker_pid=os.getpid(),
        wall_s=time.perf_counter() - tick,
        spans=tracer.drain_dicts(),
        metrics=delta,
    )


#: Resident per-study states, LRU-evicted.  Small cap: a state holds a
#: full network copy plus factor/contingency caches.
_STATE_CAP = 4

_STATES: OrderedDict[str, _WorkerState] = OrderedDict()


def _run_shared_chunk(
    study_key: str,
    base_blob: bytes,
    config: StudyConfig,
    scenarios: list[Scenario],
    trace_ctx: tuple[str, str] | None = None,
    collect_metrics: bool = True,
) -> ChunkOutcome:
    """Evaluate one chunk, reusing this worker's resident study state.

    Returns a :class:`ChunkOutcome` carrying the worker pid (the
    acceptance signal that consecutive studies reuse one pool instead of
    spawning fresh processes) plus the chunk's spans — minted under the
    dispatcher's serialised ``trace_ctx`` so they stitch into the parent
    trace — and its worker-local metrics delta.
    """
    from .runner import _WorkerState

    state = _STATES.get(study_key)
    if state is None:
        base = pickle.loads(base_blob)
        state = _WorkerState(base, config)
        _STATES[study_key] = state
        while len(_STATES) > _STATE_CAP:
            _STATES.popitem(last=False)
    else:
        _STATES.move_to_end(study_key)
    return _execute_chunk(state, scenarios, trace_ctx, collect_metrics)


# ----------------------------------------------------------------------
# parent-side executor
# ----------------------------------------------------------------------


def study_state_key(base: Network, config: StudyConfig) -> str:
    """Content-hash key for a (base network, study config) pair."""
    return hashlib.blake2b(
        f"{network_content_hash(base)}|{config!r}".encode("utf-8"),
        digest_size=8,
    ).hexdigest()


class StudyExecutor:
    """Work queue over one process pool, shared across studies.

    Thread-safe: the service layer calls :meth:`run_study_chunks` from
    multiple worker threads (one per active session turn); pool creation
    and stat updates are serialised behind a lock while the chunk futures
    themselves run unlocked.
    """

    #: Default in-flight chunk window per study, as a multiple of the
    #: worker count: enough to keep every worker busy plus one queued
    #: chunk each, small enough that a 10k-scenario stream never piles
    #: undispatched work (or undrained results) into parent memory.
    WINDOW_PER_WORKER = 2

    def __init__(
        self,
        max_workers: int = 2,
        chunk_size: int | None = None,
        window: int | None = None,
        retries: int = 0,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.chunk_size = chunk_size
        self.window = window
        #: Broken-pool retry budget per chunk.  ``0`` (the default)
        #: preserves the historical contract: a worker death poisons the
        #: study, the pool is replaced, and the *next* study starts
        #: clean.  ``retries=N`` instead resubmits the lost chunk (and
        #: every chunk that was in flight behind it, in order) to the
        #: replacement pool up to N times before giving up.
        self.retries = max(0, int(retries))
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        # Lifecycle instrumentation: `pools_started` staying at 1 across
        # many studies is the whole point of this class.
        self.pools_started = 0
        self.n_studies = 0
        self.n_chunks = 0
        self.n_retried = 0  # chunk resubmissions after a pool break
        self.max_in_flight = 0  # peak submitted-not-yet-drained chunks
        self.worker_pids: set[int] = set()

    # ------------------------------------------------------------------
    def start(self) -> "StudyExecutor":
        """Create the worker pool now, on the calling thread.

        Call this from a single-threaded context (the service does, at
        construction on the main thread): forking pool workers while
        other threads are running risks children inheriting locks held
        mid-operation — CPython's documented fork hazard.  Lazy creation
        inside :meth:`run_study_chunks` remains as a fallback for direct,
        single-threaded users.
        """
        with self._lock:
            self._start_locked()
        return self

    def _start_locked(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.pools_started += 1
        return self._pool

    def dispatch_plan(
        self,
        total: int | None,
        *,
        chunk_size: int | None = None,
        window: int | None = None,
    ) -> tuple[int, int]:
        """Resolve the (chunk size, in-flight window) a study will use.

        The single source of truth for dispatch geometry:
        :meth:`run_study_chunks` submits with it, and
        :class:`~repro.scenarios.runner.BatchStudyRunner` consults it for
        its resident-results bound — keeping the two views of chunking
        identical matters because order-preserving, identically-chunked
        dispatch is what makes tag-sliced aggregation bit-equal across
        serial, pooled, and streamed execution.
        """
        chunk = chunk_size or self.chunk_size or default_chunk_size(total, self.max_workers)
        window = max(
            1, window or self.window or self.WINDOW_PER_WORKER * self.max_workers
        )
        return chunk, window

    def run_study_chunks(
        self,
        base: Network,
        config: StudyConfig,
        scenarios: Iterable[Scenario],
        *,
        chunk_size: int | None = None,
        window: int | None = None,
    ) -> Iterator[ChunkOutcome]:
        """Stream ``scenarios`` through the pool, chunk by chunk.

        Chunks are drawn lazily from the scenario stream with at most
        ``window`` in flight (submitted but not yet drained) — the
        backpressure that keeps a 10k-scenario ensemble from piling
        either pending futures or completed-but-unread results into
        parent memory.  Completed chunks are yielded in scenario order as
        :class:`ChunkOutcome` records, so consumers fold the results into
        an online reducer, stitch the worker spans into the parent trace,
        and drop them.

        Each submission captures :func:`current_trace_context` — since a
        generator body runs in its consumer's context, that is the span
        the fold loop holds open while draining — and ships it to the
        worker, which is what parents worker-chunk spans under the
        dispatch span across the process boundary.
        """
        total = stream_length(scenarios)
        if total == 0:
            return
        key = study_state_key(base, config)
        blob = pickle.dumps(base, protocol=pickle.HIGHEST_PROTOCOL)
        chunk, window = self.dispatch_plan(
            total, chunk_size=chunk_size, window=window
        )
        chunks = iter_chunks(scenarios, chunk)
        metrics = get_metrics()
        dispatched = metrics.counter(
            "gridmind_chunks_dispatched_total", "Chunks submitted to the shared pool"
        )
        retried_total = metrics.counter(
            "gridmind_chunks_retried_total",
            "Chunks resubmitted after a broken-pool reset",
        )
        in_flight_gauge = metrics.gauge(
            "gridmind_executor_in_flight", "Chunks submitted but not yet drained"
        )
        collect = metrics.enabled

        def submit(c: list[Scenario], attempt: int = 0):
            nonlocal n_retried
            ctx = current_trace_context()
            # Submit under the lock: pool creation, submission, and the
            # broken-pool reset below are mutually exclusive, so no
            # thread can submit into a pool another thread is tearing
            # down.  The pool is re-resolved per chunk: if another
            # study's failure replaced it mid-stream, later chunks land
            # on the fresh pool (content-addressed worker state rebuilds
            # transparently).
            while True:
                with self._lock:
                    pool = self._start_locked()
                    try:
                        future = pool.submit(
                            _run_shared_chunk, key, blob, config, c, ctx, collect
                        )
                    except BrokenProcessPool:
                        # A worker death can surface at submit time (the
                        # pool was already flagged broken) instead of at
                        # result time; both paths honour the same budget.
                        self._reset_broken_pool(pool)
                        if attempt >= self.retries:
                            raise
                        attempt += 1
                        n_retried += 1
                        retried_total.inc()
                        continue
                dispatched.inc()
                return pool, future, c, attempt

        pending: deque = deque()
        pids: set[int] = set()
        n_chunks = 0
        n_retried = 0
        peak_in_flight = 0
        try:
            exhausted = False
            while not exhausted or pending:
                while not exhausted and len(pending) < window:
                    nxt = next(chunks, None)
                    if nxt is None:
                        exhausted = True
                        break
                    pending.append(submit(nxt))
                    peak_in_flight = max(peak_in_flight, len(pending))
                    in_flight_gauge.set(len(pending))
                if not pending:
                    break
                pool, future, chunk_scns, attempt = pending.popleft()
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # Only a *broken* pool (a worker died) poisons later
                    # submissions and must be dropped so the next study
                    # restarts cleanly.  Any other failure leaves the
                    # shared pool — and every concurrent study running
                    # on it — untouched.
                    with self._lock:
                        self._reset_broken_pool(pool)
                    if attempt >= self.retries:
                        raise
                    # Opt-in recovery: requeue the lost chunk and every
                    # chunk that was in flight behind it, in order, on
                    # the replacement pool — order-preserving, so the
                    # study's result stream is indistinguishable from an
                    # unbroken run.
                    stale = [(chunk_scns, attempt + 1)]
                    stale.extend((c, a + 1) for (_p, _f, c, a) in pending)
                    for _p, f, _c, _a in pending:
                        f.cancel()
                    pending.clear()
                    for c, a in stale:
                        pending.append(submit(c, a))
                    n_retried += 1
                    retried_total.inc()
                    continue
                in_flight_gauge.set(len(pending))
                pids.add(outcome.worker_pid)
                n_chunks += 1
                yield outcome
        finally:
            # Early consumer exit (or an error) must not leak queued work.
            for _pool, future, _c, _a in pending:
                future.cancel()
            in_flight_gauge.set(0)
            with self._lock:
                self.n_chunks += n_chunks
                self.n_retried += n_retried
                self.max_in_flight = max(self.max_in_flight, peak_in_flight)
                self.worker_pids.update(pids)

        with self._lock:
            self.n_studies += 1

    def run_study(
        self,
        base: Network,
        config: StudyConfig,
        scenarios: Iterable[Scenario],
        *,
        chunk_size: int | None = None,
    ) -> list[ScenarioResult]:
        """Execute ``scenarios`` on the pool, preserving order.

        Materialised convenience over :meth:`run_study_chunks` — same
        windowed dispatch underneath, results concatenated for callers
        that want the full list.
        """
        results: list[ScenarioResult] = []
        for outcome in self.run_study_chunks(
            base, config, scenarios, chunk_size=chunk_size
        ):
            results.extend(outcome.results)
        return results

    def _reset_broken_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` if it is still current (caller holds the lock).

        The identity check matters under concurrency: a study whose
        futures came from an *old* broken pool may raise after another
        thread has already replaced it — tearing down the healthy
        replacement (and cancelling its in-flight studies) would turn one
        failure into many.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        if self._pool is pool:
            self._pool = None

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Lifecycle counters (JSON-ready)."""
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "pools_started": self.pools_started,
                "n_studies": self.n_studies,
                "n_chunks": self.n_chunks,
                "n_retried": self.n_retried,
                "max_in_flight": self.max_in_flight,
                "n_worker_pids": len(self.worker_pids),
                "alive": self._pool is not None,
            }

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait)
                self._pool = None

    def __enter__(self) -> "StudyExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
