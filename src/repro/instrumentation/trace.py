"""Hierarchical tracing: spans from a service request down to a worker chunk.

The opt-in half of the observability layer (the always-on half is
:mod:`~repro.instrumentation.metrics`).  A :class:`Tracer` records
:class:`Span` trees — ``trace_id``/``span_id``/``parent_id``, name,
tags, wall-clock start, duration, status — across every layer of the
stack::

    service.run_study            GridMindService (asyncio front door)
      study.run                  BatchStudyRunner
        executor.dispatch        StudyExecutor (serial.dispatch in-process)
          worker.chunk           pool worker process (re-parented)
            scenario.run         _WorkerState.run_scenario
              solve.newton       powerflow/OPF entry points
          study.reduce           parent-side chunk fold

Propagation is contextvar-based: opening a span makes it the implicit
parent for anything beneath it on the same thread/task (``asyncio`` and
``asyncio.to_thread`` both copy the context, so spans flow through the
service's thread hops untouched).  Crossing the *process-pool* boundary
is explicit: the dispatcher serialises :func:`current_trace_context`
into each chunk payload, the worker activates it
(:meth:`Tracer.activate`) so its spans are minted under the remote
parent, and the finished span dicts ride the chunk result back where
:meth:`Tracer.adopt` stitches them into the parent buffer — one
coherent trace across processes.

Tracing is off by default: the process-wide tracer starts disabled, and
a disabled tracer's :meth:`~Tracer.span` returns a shared no-op context
manager (no allocation, no clock reads) so always-on call sites cost
~an attribute check.  ``gridmind --trace`` / ``GridMindService(trace=
True)`` install a recording tracer via :func:`set_tracer`.

See also :mod:`~repro.instrumentation.runlog` (per-request summary
records) and :mod:`~repro.instrumentation.audit` (numerical-claim
checking) — the single-turn instrumentation this module generalises to
full cross-process traces.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .ringlog import RingLog

#: Bound on retained finished spans (per tracer).  A 10k-scenario traced
#: study emits tens of thousands of scenario/solver spans; the cap keeps
#: the buffer a window rather than a leak, and the renderer tolerates
#: evicted parents.
DEFAULT_MAX_SPANS = 50_000

#: Finished-span cap for one worker-side chunk tracer: a chunk is at
#: most a few dozen scenarios, each a handful of spans.
WORKER_CHUNK_MAX_SPANS = 4_096

#: (trace_id, span_id) of the active span in this execution context —
#: shared by every tracer so activation survives tracer swaps.
_ACTIVE: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "gridmind_active_span", default=None
)


@dataclass
class Span:
    """One timed, tagged node of a trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_s: float = 0.0  # wall clock (time.time) — comparable across processes
    duration_s: float = 0.0
    status: str = "ok"  # "ok" | "error"
    error: str = ""
    pid: int = 0
    tags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "status": self.status,
            "pid": self.pid,
        }
        if self.error:
            out["error"] = self.error
        if self.tags:
            out["tags"] = self.tags
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data.get("name", ""),
            trace_id=data.get("trace_id", ""),
            span_id=data.get("span_id", ""),
            parent_id=data.get("parent_id"),
            start_s=float(data.get("start_s", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            status=data.get("status", "ok"),
            error=data.get("error", ""),
            pid=int(data.get("pid", 0)),
            tags=dict(data.get("tags") or {}),
        )


def current_trace_context() -> tuple[str, str] | None:
    """The (trace_id, span_id) pair new child spans would parent under.

    ``None`` when no span is active — exactly what a dispatcher should
    serialise into a chunk payload: workers receiving ``None`` skip
    tracing entirely.
    """
    return _ACTIVE.get()


class _NullSpanHandle:
    """Shared do-nothing context manager for disabled tracers."""

    __slots__ = ()
    tags: dict = {}

    def __enter__(self) -> "Span":
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = Span(name="", trace_id="", span_id="")
_NULL_HANDLE = _NullSpanHandle()


class Tracer:
    """Creates, times, and buffers spans; thread-safe.

    One tracer is the process-wide default (see :func:`get_tracer`);
    workers build short-lived private tracers per chunk.
    """

    def __init__(
        self, *, enabled: bool = True, max_spans: int | None = DEFAULT_MAX_SPANS
    ) -> None:
        self.enabled = enabled
        self.buffer: RingLog[Span] = RingLog(max_spans)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    @contextmanager
    def _span_cm(self, name: str, tags: dict):
        parent = _ACTIVE.get()
        if parent is None:
            trace_id = os.urandom(8).hex()
            parent_id = None
        else:
            trace_id, parent_id = parent
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=os.urandom(8).hex(),
            parent_id=parent_id,
            start_s=time.time(),
            pid=os.getpid(),
            tags=tags,
        )
        token = _ACTIVE.set((trace_id, span.span_id))
        tick = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.duration_s = time.perf_counter() - tick
            _ACTIVE.reset(token)
            with self._lock:
                self.buffer.append(span)

    def span(self, name: str, **tags):
        """Context manager: open a child of the active span.

        Yields the live :class:`Span` so callers can attach result tags
        (``sp.tags["converged"] = True``).  Exceptions mark the span
        ``status="error"`` and re-raise.  On a disabled tracer this is a
        shared no-op handle.
        """
        if not self.enabled:
            return _NULL_HANDLE
        return self._span_cm(name, tags)

    @contextmanager
    def activate(self, context: tuple[str, str] | None):
        """Make a *remote* (trace_id, span_id) the implicit parent.

        The worker-side half of cross-process propagation: spans opened
        inside the block parent under the dispatcher's span even though
        that span object lives in another process.
        """
        if context is None:
            yield
            return
        token = _ACTIVE.set((context[0], context[1]))
        try:
            yield
        finally:
            _ACTIVE.reset(token)

    # ------------------------------------------------------------------
    # buffer access and stitching
    # ------------------------------------------------------------------
    def record(self, span: Span) -> None:
        with self._lock:
            self.buffer.append(span)

    def adopt(self, span_dicts: list[dict] | None) -> int:
        """Stitch finished remote spans (as dicts) into this buffer."""
        if not span_dicts:
            return 0
        with self._lock:
            for data in span_dicts:
                self.buffer.append(Span.from_dict(data))
        return len(span_dicts)

    def spans(self, trace_id: str | None = None) -> list[Span]:
        """Retained finished spans, oldest first; optionally one trace."""
        with self._lock:
            all_spans = list(self.buffer)
        if trace_id is None:
            return all_spans
        return [s for s in all_spans if s.trace_id == trace_id]

    def drain_dicts(self) -> list[dict]:
        """Export-and-clear, as plain dicts (the worker→parent payload)."""
        with self._lock:
            out = [s.to_dict() for s in self.buffer]
            self.buffer.clear()
        return out

    def export_jsonl(self, path: str | Path, trace_id: str | None = None) -> int:
        """Write spans as JSON lines; returns the number written."""
        spans = self.spans(trace_id)
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict(), default=str) + "\n")
        return len(spans)


@contextmanager
def worker_trace(context: tuple[str, str] | None):
    """Worker-side chunk tracing: a private tracer under a remote parent.

    Yields the chunk's tracer (disabled when ``context`` is ``None`` —
    untraced studies pay only this None check).  The caller collects
    ``tracer.drain_dicts()`` to ship spans back with the chunk results.
    Installed as the process-wide tracer for the duration so solver
    entry points deep in the call stack record into it.
    """
    tracer = Tracer(
        enabled=context is not None, max_spans=WORKER_CHUNK_MAX_SPANS
    )
    previous = set_tracer(tracer)
    try:
        with tracer.activate(context):
            yield tracer
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# rendering: span tree + critical-path summary
# ----------------------------------------------------------------------


def _as_spans(spans: list[Span] | list[dict]) -> list[Span]:
    return [s if isinstance(s, Span) else Span.from_dict(s) for s in spans]


def render_trace(
    spans: list[Span] | list[dict],
    *,
    max_children: int = 8,
    max_depth: int = 12,
) -> str:
    """Render a time-annotated span tree.

    Spans whose parent was evicted from the ring buffer (or belongs to
    another trace) are attached at the root.  Sibling lists longer than
    ``max_children`` are collapsed to the longest-running few plus a
    one-line rollup, so a 1k-scenario trace stays readable.
    """
    spans = _as_spans(spans)
    if not spans:
        return "(no spans)"
    by_id = {s.span_id: s for s in spans}
    children: dict[str | None, list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start_s)

    origin = min(s.start_s for s in spans)
    lines: list[str] = []

    def _describe(s: Span) -> str:
        flags = ""
        if s.status != "ok":
            flags = f" !{s.status}" + (f" ({s.error})" if s.error else "")
        tag_str = ""
        if s.tags:
            shown = ", ".join(f"{k}={v}" for k, v in list(s.tags.items())[:6])
            tag_str = f" [{shown}]"
        return (
            f"{s.name}  {1e3 * s.duration_s:.1f}ms"
            f"  @+{1e3 * (s.start_s - origin):.1f}ms"
            f"  pid={s.pid}{tag_str}{flags}"
        )

    def _walk(span: Span, prefix: str, depth: int) -> None:
        lines.append(prefix + _describe(span))
        if depth >= max_depth:
            return
        kids = children.get(span.span_id, [])
        shown = kids
        if len(kids) > max_children:
            # Keep the slowest spans (the interesting ones), in time order.
            slowest = set(
                id(k) for k in sorted(kids, key=lambda s: -s.duration_s)[:max_children]
            )
            shown = [k for k in kids if id(k) in slowest]
        for kid in shown:
            _walk(kid, prefix + "  ", depth + 1)
        hidden = len(kids) - len(shown)
        if hidden:
            total = sum(k.duration_s for k in kids if id(k) not in
                        {id(s) for s in shown})
            lines.append(
                prefix + f"  ... {hidden} more span(s), {1e3 * total:.1f}ms total"
            )

    for root in children.get(None, []):
        _walk(root, "", 0)
    return "\n".join(lines)


def critical_path(spans: list[Span] | list[dict]) -> list[dict]:
    """Aggregate *self time* (duration minus child durations) by span name.

    The "where did the wall time go" table: each row reports how much of
    the trace's total was spent inside spans of one name, exclusive of
    their children — so nested wrappers don't double-count — plus call
    count and worker fan-out.
    """
    spans = _as_spans(spans)
    if not spans:
        return []
    by_id = {s.span_id: s for s in spans}
    child_time: dict[str, float] = {}
    for s in spans:
        if s.parent_id in by_id:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration_s
    rows: dict[str, dict] = {}
    for s in spans:
        self_s = max(0.0, s.duration_s - child_time.get(s.span_id, 0.0))
        row = rows.setdefault(
            s.name, {"name": s.name, "self_s": 0.0, "count": 0, "pids": set()}
        )
        row["self_s"] += self_s
        row["count"] += 1
        row["pids"].add(s.pid)
    total_self = sum(r["self_s"] for r in rows.values()) or 1.0
    out = []
    for row in sorted(rows.values(), key=lambda r: -r["self_s"]):
        out.append(
            {
                "name": row["name"],
                "self_s": round(row["self_s"], 6),
                "fraction": round(row["self_s"] / total_self, 4),
                "count": row["count"],
                "n_workers": len(row["pids"]),
            }
        )
    return out


def format_trace_report(
    spans: list[Span] | list[dict],
    *,
    max_children: int = 8,
    top: int = 8,
) -> str:
    """Span tree plus the critical-path summary, ready to print."""
    spans = _as_spans(spans)
    tree = render_trace(spans, max_children=max_children)
    rows = critical_path(spans)[:top]
    if not rows:
        return tree
    lines = [tree, "", "critical path (self time by span name):"]
    for row in rows:
        workers = (
            f" across {row['n_workers']} workers" if row["n_workers"] > 1 else ""
        )
        lines.append(
            f"  {100.0 * row['fraction']:5.1f}%  {row['name']}"
            f"  ({row['count']} span(s), {row['self_s']:.3f}s{workers})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# process-wide tracer
# ----------------------------------------------------------------------

_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled no-op unless installed)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped installation of a recording tracer (tests, CLI one-shots)."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
