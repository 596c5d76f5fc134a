"""End-to-end tracing and metrics: spans, registry, exporters, propagation.

Covers the observability stack bottom-up: the shared :class:`RingLog`
buffer, the always-on :class:`MetricsRegistry` (counters, gauges,
fixed-bucket histograms, Prometheus text exposition, cross-process state
merge), the :class:`Tracer` (nesting, contextvar propagation, error
status, remote activation, adoption of worker spans), trace propagation
across every study execution path (serial, per-run pool, shared
executor) including the opt-in broken-pool retry, the store's ``.trace``
sidecar lifecycle, and the ``gridmind trace`` CLI renderer.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.instrumentation.metrics import (
    MetricsRegistry,
    get_metrics,
    render_prometheus,
    set_metrics,
    state_delta,
)
from repro.instrumentation.ringlog import RingLog
from repro.instrumentation.trace import (
    Span,
    Tracer,
    critical_path,
    current_trace_context,
    format_trace_report,
    get_tracer,
    render_trace,
    tracing,
    worker_trace,
)
from repro.scenarios import BatchStudyRunner, StudyConfig, load_sweep
from repro.service import GridMindService, StudyExecutor
from repro.service.api import StudyRequest
from repro.service.store import ResultStore, StudyNotFound


@pytest.fixture
def fresh_metrics():
    """Install a fresh registry process-wide; restore the previous one."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


# ----------------------------------------------------------------------
# RingLog: the shared bounded buffer under logs, tool calls, and spans
# ----------------------------------------------------------------------


class TestRingLog:
    def test_append_returns_monotone_seq(self):
        ring = RingLog(10)
        assert [ring.append(c) for c in "abc"] == [0, 1, 2]
        assert ring.count == 3
        assert list(ring) == ["a", "b", "c"]

    def test_eviction_preserves_seq_numbers(self):
        ring = RingLog(3)
        for i in range(5):
            ring.append(i)
        assert len(ring) == 3
        assert ring.count == 5  # total ever appended
        assert ring.first_seq == 2
        assert list(ring.pairs()) == [(2, 2), (3, 3), (4, 4)]
        assert ring.since(3) == [3, 4]  # inclusive cursor
        assert ring.since(0) == [2, 3, 4]  # evicted entries are gone

    def test_recap_preserves_history(self):
        ring = RingLog(10)
        for i in range(4):
            ring.append(i)
        recapped = RingLog(2, ring)
        assert list(recapped.pairs()) == [(2, 2), (3, 3)]
        assert recapped.count == 4
        assert recapped.append(4) == 4  # seq continues, not reset

    def test_dunder_surface(self):
        ring = RingLog(4)
        assert not ring
        ring.append("x")
        assert ring and len(ring) == 1 and ring[0] == "x" and ring[-1] == "x"
        ring.clear()
        assert not ring and ring.count == 1  # count survives clear


# ----------------------------------------------------------------------
# metrics registry + Prometheus exposition
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_total(self, fresh_metrics):
        c = fresh_metrics.counter("requests_total", "Requests")
        c.inc(model="a")
        c.inc(2, model="b")
        c.inc(model="a")
        assert c.value(model="a") == 2.0
        assert c.value(model="b") == 2.0
        assert c.total() == 4.0

    def test_gauge_set_dec_and_set_max(self, fresh_metrics):
        g = fresh_metrics.gauge("in_flight", "In flight")
        g.set(3.0)
        g.dec()
        assert g.value() == 2.0
        g.set_max(10.0)
        g.set_max(4.0)  # lower: ignored
        assert g.value() == 10.0

    def test_histogram_buckets_and_sum(self, fresh_metrics):
        h = fresh_metrics.histogram("lat", "Latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)

    def test_prometheus_text_exposition(self, fresh_metrics):
        fresh_metrics.counter("hits_total", "Hits").inc(3, kind="tool")
        fresh_metrics.histogram("t", "T", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(fresh_metrics)
        assert "# HELP hits_total Hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{kind="tool"} 3' in text
        # Histogram buckets are cumulative and close with +Inf.
        assert 't_bucket{le="0.1"} 0' in text
        assert 't_bucket{le="1"} 1' in text
        assert 't_bucket{le="+Inf"} 1' in text
        assert "t_count 1" in text

    def test_label_values_escaped_in_exposition(self, fresh_metrics):
        # Session ids and case names flow into label values; the
        # exposition format requires backslash, quote, and newline
        # escapes or the scrape line is corrupt.
        c = fresh_metrics.counter("esc_total", "E")
        c.inc(name='say "hi"')
        c.inc(name="back\\slash")
        c.inc(name="two\nlines")
        text = render_prometheus(fresh_metrics)
        assert 'esc_total{name="say \\"hi\\""} 1' in text
        assert 'esc_total{name="back\\\\slash"} 1' in text
        assert 'esc_total{name="two\\nlines"} 1' in text
        # Every metric line stays a single physical line.
        for line in text.splitlines():
            if line.startswith("esc_total"):
                assert line.count('"') % 2 == 0

    def test_escaping_applies_to_histogram_extra_labels(self, fresh_metrics):
        h = fresh_metrics.histogram("esc_t", "T", buckets=(1.0,))
        h.observe(0.5, case='a"b')
        text = render_prometheus(fresh_metrics)
        assert 'esc_t_bucket{case="a\\"b",le="1"} 1' in text

    def test_same_name_returns_same_instrument(self, fresh_metrics):
        a = fresh_metrics.counter("x_total", "X")
        b = fresh_metrics.counter("x_total")
        assert a is b

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("x_total", "X")
        c.inc(5)  # no-op, no error
        state = registry.state()
        assert state.get("counters", {}) == {}
        assert state.get("histograms", {}) == {}
        assert registry.instruments() == []

    def test_state_merge_accumulates_worker_deltas(self, fresh_metrics):
        worker = MetricsRegistry()
        before = worker.state()
        worker.counter("solves_total", "S").inc(3, solver="newton")
        worker.histogram("iters", "I", buckets=(2.0, 8.0)).observe(5)
        delta = state_delta(worker.state(), before)
        fresh_metrics.merge_state(delta)
        fresh_metrics.merge_state(delta)  # two chunks from the same worker
        assert fresh_metrics.counter("solves_total").value(solver="newton") == 6.0
        assert fresh_metrics.histogram("iters", buckets=(2.0, 8.0)).count() == 2

    def test_state_delta_drops_unmoved_series(self, fresh_metrics):
        registry = MetricsRegistry()
        registry.counter("idle_total", "I").inc(0)
        before = registry.state()
        registry.counter("busy_total", "B").inc()
        delta = state_delta(registry.state(), before)
        assert "busy_total" in delta["counters"]
        assert "idle_total" not in delta["counters"]


# ----------------------------------------------------------------------
# tracer core: nesting, contextvars, remote activation, adoption
# ----------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_share_trace_and_link_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert current_trace_context() == (outer.trace_id, outer.span_id)
            with tracer.span("inner") as inner:
                pass
        assert current_trace_context() is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]
        assert all(s.duration_s >= 0.0 for s in tracer.spans())

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.trace_id != b.trace_id

    def test_exception_marks_span_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad input")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "ValueError" in span.error and "bad input" in span.error

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x", tag=1) as span:
            assert current_trace_context() is None
            assert span.trace_id == ""
        assert tracer.spans() == []

    def test_activate_parents_under_remote_context(self):
        tracer = Tracer()
        with tracer.activate(("cafe01", "span01")):
            with tracer.span("child") as child:
                pass
        assert child.trace_id == "cafe01"
        assert child.parent_id == "span01"

    def test_adopt_stitches_dicts_into_buffer(self):
        tracer = Tracer()
        remote = [
            Span(name="w", trace_id="t1", span_id="s9", parent_id="s1").to_dict()
        ]
        assert tracer.adopt(remote) == 1
        assert tracer.adopt(None) == 0
        (span,) = tracer.spans("t1")
        assert isinstance(span, Span) and span.name == "w"

    def test_drain_dicts_exports_and_clears(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        dicts = tracer.drain_dicts()
        assert [d["name"] for d in dicts] == ["a"]
        assert tracer.spans() == []

    def test_span_dict_roundtrip(self):
        with Tracer().span("s", k="v") as span:
            pass
        back = Span.from_dict(span.to_dict())
        assert back.name == "s" and back.tags == {"k": "v"}
        assert back.trace_id == span.trace_id
        assert back.span_id == span.span_id
        assert json.dumps(span.to_dict())  # JSONL-safe

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {d["name"] for d in lines} == {"a", "b"}

    def test_tracing_scope_installs_and_restores(self):
        before = get_tracer()
        with tracing() as tracer:
            assert get_tracer() is tracer and tracer.enabled
        assert get_tracer() is before

    def test_worker_trace_installs_private_tracer(self):
        before = get_tracer()
        with worker_trace(("t0", "s0")) as wt:
            assert get_tracer() is wt
            with wt.span("chunk") as chunk:
                pass
        assert get_tracer() is before
        assert chunk.trace_id == "t0" and chunk.parent_id == "s0"

    def test_worker_trace_without_context_is_disabled(self):
        with worker_trace(None) as wt:
            assert not wt.enabled
            with wt.span("chunk"):
                pass
        assert wt.spans() == []

    def test_default_process_tracer_is_disabled(self):
        assert not Tracer(enabled=False).enabled  # shape check
        # The ambient default records nothing unless explicitly installed.
        ambient = get_tracer()
        if not ambient.enabled:  # tolerate a test that installed one
            before = len(ambient.spans())
            with ambient.span("x"):
                pass
            assert len(ambient.spans()) == before


# ----------------------------------------------------------------------
# rendering: span tree + critical path
# ----------------------------------------------------------------------


def _synthetic_trace() -> list[Span]:
    mk = lambda name, sid, parent, start, dur, pid=1: Span(  # noqa: E731
        name=name, trace_id="t", span_id=sid, parent_id=parent,
        start_s=start, duration_s=dur, pid=pid,
    )
    return [
        mk("root", "r", None, 0.0, 1.0),
        mk("stage", "s", "r", 0.1, 0.8),
        mk("leaf", "l1", "s", 0.1, 0.3, pid=2),
        mk("leaf", "l2", "s", 0.5, 0.4, pid=3),
        mk("orphan", "o", "gone", 0.2, 0.1),  # parent evicted
    ]


class TestRendering:
    def test_tree_shape_and_orphan_promotion(self):
        text = render_trace(_synthetic_trace())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  stage")
        assert lines[2].startswith("    leaf")
        # The orphan is attached at root level, not dropped.
        assert any(line.startswith("orphan") for line in lines)
        assert "1000.0ms" in lines[0]

    def test_sibling_collapse_keeps_slowest(self):
        spans = [Span(name="root", trace_id="t", span_id="r", duration_s=1.0)]
        for i in range(12):
            spans.append(Span(
                name=f"kid{i}", trace_id="t", span_id=f"k{i}", parent_id="r",
                start_s=float(i), duration_s=float(i),
            ))
        text = render_trace(spans, max_children=3)
        assert "... 9 more span(s)" in text
        assert "kid11" in text and "kid0" not in text

    def test_error_span_is_flagged(self):
        spans = [Span(name="bad", trace_id="t", span_id="b",
                      status="error", error="KeyError: 'x'")]
        assert "!error" in render_trace(spans)

    def test_critical_path_uses_self_time(self):
        rows = {r["name"]: r for r in critical_path(_synthetic_trace())}
        # stage: 0.8 total minus 0.7 of children = 0.1 self.
        assert rows["stage"]["self_s"] == pytest.approx(0.1)
        assert rows["leaf"]["self_s"] == pytest.approx(0.7)
        assert rows["leaf"]["count"] == 2
        assert rows["leaf"]["n_workers"] == 2
        assert sum(r["fraction"] for r in rows.values()) == pytest.approx(1.0, abs=0.01)

    def test_format_trace_report_combines_both(self):
        report = format_trace_report(_synthetic_trace())
        assert "critical path (self time by span name):" in report
        assert report.index("root") < report.index("critical path")

    def test_empty_trace(self):
        assert render_trace([]) == "(no spans)"
        assert critical_path([]) == []


# ----------------------------------------------------------------------
# propagation through the study execution paths (satellite: process pool)
# ----------------------------------------------------------------------

_LAYERS = {"study.run", "worker.chunk", "scenario.run", "solve.newton"}


def _traced_study(case, *, n_jobs=1, executor=None, n=4):
    scenarios = load_sweep(0.95, 1.05, n)
    # ac_mode="cold" pins the per-scenario solve path: these tests assert
    # the scenario/solver span plumbing the warm AC kernel (one
    # chunk.ac_batch span per group) deliberately bypasses.
    runner = BatchStudyRunner(
        StudyConfig(analysis="powerflow", ac_mode="cold"),
        n_jobs=n_jobs,
        executor=executor,
    )
    with tracing() as tracer:
        study = runner.run(case, scenarios)
    return study, tracer.spans()


def _by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


class TestStudyTracePropagation:
    def test_serial_study_traces_every_layer(self, case14):
        study, spans = _traced_study(case14)
        names = _by_name(spans)
        assert _LAYERS <= set(names)
        assert len({s.trace_id for s in spans}) == 1
        (dispatch,) = names["serial.dispatch"]
        (root,) = names["study.run"]
        assert dispatch.parent_id == root.span_id
        assert all(c.parent_id == dispatch.span_id for c in names["worker.chunk"])
        assert len(names["scenario.run"]) == study.n_scenarios
        assert root.tags["n_scenarios"] == 4

    def test_pooled_study_stitches_worker_spans(self, case14):
        study, spans = _traced_study(case14, n_jobs=2, n=4)
        names = _by_name(spans)
        assert _LAYERS <= set(names)
        assert len({s.trace_id for s in spans}) == 1
        (dispatch,) = names["executor.dispatch"]
        chunks = names["worker.chunk"]
        assert all(c.parent_id == dispatch.span_id for c in chunks)
        # The chunk spans really came from other processes.
        assert all(c.pid != os.getpid() for c in chunks)
        assert dispatch.pid == os.getpid()
        # Every scenario span parents under some adopted chunk span.
        chunk_ids = {c.span_id for c in chunks}
        assert all(
            s.parent_id in chunk_ids for s in names["scenario.run"]
        )
        assert len(names["scenario.run"]) == 4

    def test_executor_study_traces_across_shared_pool(self, case14):
        with StudyExecutor(max_workers=2) as executor:
            study, spans = _traced_study(case14, executor=executor, n=4)
        names = _by_name(spans)
        assert _LAYERS <= set(names)
        (dispatch,) = names["executor.dispatch"]
        chunks = names["worker.chunk"]
        assert all(c.parent_id == dispatch.span_id for c in chunks)
        assert all(c.pid != os.getpid() for c in chunks)
        assert len({s.trace_id for s in spans}) == 1

    def test_untraced_study_records_no_spans(self, case14):
        ambient = get_tracer()
        if ambient.enabled:
            pytest.skip("a tracer is installed process-wide")
        before = len(ambient.spans())
        _traced = BatchStudyRunner(StudyConfig(analysis="powerflow")).run(
            case14, load_sweep(0.98, 1.02, 2)
        )
        assert len(ambient.spans()) == before

    def test_progress_carries_chunk_wall_and_worker_pid(self, case14):
        events = []
        scenarios = load_sweep(0.95, 1.05, 4)
        with StudyExecutor(max_workers=2) as executor:
            BatchStudyRunner(StudyConfig(analysis="powerflow"), executor=executor).run(
                case14, scenarios, progress=events.append
            )
        assert events
        parent = os.getpid()
        for p in events:
            assert p.chunk_wall_s >= 0.0
            assert p.worker_pid > 0 and p.worker_pid != parent
            assert "chunk_wall_s" in p.to_dict()
            assert "worker_pid" in p.to_dict()

    def test_study_metrics_merge_from_workers(self, case14, fresh_metrics):
        with StudyExecutor(max_workers=2) as executor:
            BatchStudyRunner(
                StudyConfig(analysis="powerflow", ac_mode="cold"),
                executor=executor,
            ).run(case14, load_sweep(0.95, 1.05, 4))
        m = get_metrics()
        assert m.counter("gridmind_scenarios_total").total() == 4.0
        assert m.counter("gridmind_solver_invocations_total").total() == 4.0
        assert m.counter("gridmind_chunks_dispatched_total").total() >= 1.0
        assert m.counter("gridmind_studies_total").total() == 1.0
        assert m.histogram("gridmind_solver_seconds").count(solver="newton") == 4


def _fold(executor, base, config, scenarios):
    """The executor's chunk stream folded into one ordered record list."""
    return [
        r
        for outcome in executor.run_study_chunks(base, config, scenarios)
        for r in outcome.results
    ]


class TestExecutorRetry:
    def test_broken_pool_retry_completes_study(self, case14):
        import signal

        scenarios = load_sweep(0.9, 1.1, 4)
        config = StudyConfig(analysis="powerflow")
        with StudyExecutor(max_workers=1, retries=1) as executor:
            baseline = _fold(executor, case14, config, scenarios)
            (pid,) = executor.worker_pids
            os.kill(pid, signal.SIGKILL)
            # With a retry budget the study survives the dead worker:
            # the lost chunks are resubmitted, in order, on a new pool.
            results = _fold(executor, case14, config, scenarios)
            stats = executor.stats()
        assert [r.name for r in results] == [r.name for r in baseline]
        assert all(r.converged for r in results)
        assert stats["pools_started"] == 2
        assert stats["n_retried"] >= 1

    def test_default_retry_budget_is_zero(self):
        executor = StudyExecutor()
        assert executor.retries == 0
        assert executor.stats()["n_retried"] == 0

    def test_stats_surface_executor_lifecycle(self, case14):
        scenarios = load_sweep(0.9, 1.1, 4)
        config = StudyConfig(analysis="powerflow")
        with StudyExecutor(max_workers=2) as executor:
            _fold(executor, case14, config, scenarios)
            stats = executor.stats()
            assert stats["alive"] is True
        assert stats["max_workers"] == 2
        assert stats["pools_started"] == 1
        assert stats["n_studies"] == 1
        assert stats["n_chunks"] >= 1
        assert stats["n_retried"] == 0
        assert 1 <= stats["max_in_flight"] <= 2 * 2  # capped by the window
        assert stats["n_worker_pids"] >= 1
        assert executor.stats()["alive"] is False  # after shutdown

    def test_in_flight_gauge_zero_after_sigkill_recovery(self, case14, fresh_metrics):
        import signal

        scenarios = load_sweep(0.9, 1.1, 4)
        config = StudyConfig(analysis="powerflow")
        with StudyExecutor(max_workers=1, retries=1) as executor:
            _fold(executor, case14, config, scenarios)
            (pid,) = executor.worker_pids
            os.kill(pid, signal.SIGKILL)
            _fold(executor, case14, config, scenarios)
            stats = executor.stats()
        gauge = fresh_metrics.gauge("gridmind_executor_in_flight")
        # The finally block must release every slot even when chunks were
        # resubmitted on a replacement pool mid-study.
        assert gauge.value() == 0.0
        # Retries observed by stats() and by the metric counter agree.
        retried = fresh_metrics.counter("gridmind_chunks_retried_total").total()
        assert stats["n_retried"] >= 1
        assert retried == stats["n_retried"]


# ----------------------------------------------------------------------
# store sidecars + service end-to-end + CLI renderer
# ----------------------------------------------------------------------


class TestTraceSidecar:
    def _stored_study(self, store, case):
        scenarios = load_sweep(0.95, 1.05, 3)
        runner = BatchStudyRunner(StudyConfig(analysis="powerflow"))
        study = runner.run(case, scenarios)
        return store.put(case, runner.config, scenarios, study)

    def test_put_and_load_roundtrip(self, tmp_path, case14):
        store = ResultStore(tmp_path)
        key = self._stored_study(store, case14)
        tracer = Tracer()
        with tracer.span("study.run"):
            with tracer.span("worker.chunk"):
                pass
        store.put_trace(key, tracer.spans())
        loaded = store.load_trace(key)
        assert [d["name"] for d in loaded] == ["worker.chunk", "study.run"]
        # Prefix refs resolve like every other store op.
        assert store.load_trace(key[:10]) == loaded

    def test_missing_sidecar_raises_study_not_found(self, tmp_path, case14):
        store = ResultStore(tmp_path)
        key = self._stored_study(store, case14)
        with pytest.raises(StudyNotFound, match="no trace sidecar"):
            store.load_trace(key)

    def test_delete_removes_sidecar(self, tmp_path, case14):
        store = ResultStore(tmp_path)
        key = self._stored_study(store, case14)
        store.put_trace(key, [Span(name="x", trace_id="t", span_id="s")])
        assert (tmp_path / f"{key}.trace").exists()
        store.prune(max_bytes=0)
        assert not (tmp_path / f"{key}.trace").exists()


class TestServiceTracing:
    def test_traced_service_exports_spans_spanning_layers(self, tmp_path):
        async def run():
            async with GridMindService(
                max_workers=2, store_dir=str(tmp_path), trace=True
            ) as svc:
                # acopf rows take the per-scenario path, so every span
                # layer down to the solver shows up.
                reply = await svc.run_study(StudyRequest(
                    case_name="ieee14", kind="sweep", n_scenarios=4,
                    analysis="acopf",
                ))
                ask = await svc.ask("a", "Solve the IEEE 14 bus case")
                spans = svc.tracer.spans()
                store = ResultStore(tmp_path)
                sidecar = store.load_trace(reply.study_key)
                return reply, ask, spans, sidecar

        reply, ask, spans, sidecar = asyncio.run(run())
        assert get_tracer() is not None and not get_tracer().enabled  # restored
        assert reply.trace_id
        names = {d["name"] for d in sidecar}
        # The acceptance bar: the exported trace spans >= 3 layers.
        assert {"service.run_study", "study.run", "worker.chunk",
                "scenario.run", "solve.acopf"} <= names
        assert {d["trace_id"] for d in sidecar} == {reply.trace_id}
        # The conversational path traces too: session.turn under
        # service.ask, agent + tool spans below.
        by_name = _by_name(spans)
        (service_ask,) = by_name["service.ask"]
        (turn,) = by_name["session.turn"]
        assert turn.parent_id == service_ask.span_id
        assert any(n.startswith("agent.") for n in by_name)
        assert any(n.startswith("tool.") for n in by_name)

    def test_untraced_service_reply_has_no_trace_id(self, tmp_path):
        async def run():
            async with GridMindService(
                max_workers=1, store_dir=str(tmp_path)
            ) as svc:
                return await svc.run_study(StudyRequest(
                    case_name="ieee14", kind="sweep", n_scenarios=2,
                ))

        reply = asyncio.run(run())
        assert reply.trace_id is None
        with pytest.raises(StudyNotFound):
            ResultStore(tmp_path).load_trace(reply.study_key)

    def test_metrics_text_exposition(self, tmp_path, fresh_metrics):
        async def run():
            async with GridMindService(max_workers=1) as svc:
                await svc.ask("a", "Solve the IEEE 14 bus case")
                return svc.metrics_text()

        text = asyncio.run(run())
        assert "# TYPE gridmind_requests_total counter" in text
        assert 'gridmind_requests_total{model="gpt-5-mini",success="True"} 1' in text
        assert "gridmind_tool_calls_total" in text


class TestTraceCLI:
    def test_trace_subcommand_renders_store_sidecar(self, tmp_path, case14, capsys):
        from repro.core.cli import main

        store = ResultStore(tmp_path)
        scenarios = load_sweep(0.95, 1.05, 3)
        # ac_mode="cold": the rendered report asserts per-scenario spans.
        runner = BatchStudyRunner(StudyConfig(analysis="powerflow", ac_mode="cold"))
        with tracing() as tracer:
            with tracer.span("study.run"):
                study = runner.run(case14, scenarios)
        key = store.put(case14, runner.config, scenarios, study)
        store.put_trace(key, tracer.spans())

        assert main(["trace", "--store", str(tmp_path)]) == 0  # latest
        out = capsys.readouterr().out
        assert "study.run" in out
        assert "serial.dispatch" in out
        assert "critical path (self time by span name):" in out

        assert main(["trace", key[:8], "--store", str(tmp_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {d["name"] for d in data} >= {"study.run", "scenario.run"}

    def test_trace_subcommand_reads_raw_file(self, tmp_path, capsys):
        from repro.core.cli import main

        tracer = Tracer()
        with tracer.span("root"):
            pass
        path = tmp_path / "t.jsonl"
        tracer.export_jsonl(path)
        assert main(["trace", "--file", str(path)]) == 0
        assert "root" in capsys.readouterr().out

    def test_trace_subcommand_errors_cleanly(self, tmp_path, capsys):
        from repro.core.cli import main

        assert main(["trace", "nope", "--store", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["trace"]) == 2  # neither --store nor --file

    def test_study_trace_flag_prints_report(self, capsys):
        from repro.core.cli import main

        rc = main([
            "study", "--case", "ieee14", "--kind", "sweep", "-n", "3",
            "--trace",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[gridmind] trace" in err
        assert "study.run" in err
        assert "solve.newton" in err
        assert not get_tracer().enabled  # scoped install was restored
