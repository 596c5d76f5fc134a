"""Fold one traced pass into per-layer metrics.

Two sources, both already emitted by the program:

* the span tree of the pass (``GridMindService(trace=True)``), folded into
  self time per layer.  Self time subtracts only the children recorded by
  the *same process*: a ``worker.chunk`` span that ran in a pool worker
  overlaps its parent ``executor.dispatch`` span in wall time but not in
  CPU, so subtracting it (as ``trace.critical_path`` does) would clamp the
  dispatcher's self time to zero whenever two workers run in parallel.
  Cross-process time is reported separately, as worker busy time and
  executor utilisation;
* the delta of the always-on metrics registry over the pass, for counts
  (solver calls and iterations, batched rows, telemetry frames).

Layer names follow the package layout under ``src/repro``.
"""

from __future__ import annotations

from collections import defaultdict

#: Self-time layer of each span name (exact names first, then prefixes).
_EXACT = {
    "session.turn": "core",
    "planner.plan": "core",
    "tool.run_n1_contingency_analysis": "contingency",
    "study.run": "scenarios.dispatch",
    "executor.dispatch": "scenarios.dispatch",
    "serial.dispatch": "scenarios.dispatch",
    "pool.dispatch": "scenarios.dispatch",
    "study.reduce": "scenarios.reduce",
    "worker.chunk": "scenarios.worker",
    "scenario.run": "scenarios.worker",
    "chunk.ac_batch": "powerflow.kernel",
    "chunk.batch": "powerflow.kernel",
    "solve.newton": "powerflow.solver",
    "solve.fast_decoupled": "powerflow.solver",
    "solve.gauss_seidel": "powerflow.solver",
    "solve.acopf": "opf",
    "solve.dcopf": "opf",
    "solve.scopf": "opf",
    "telemetry.watch": "telemetry",
}
_PREFIX = (("service.", "service"), ("agent.", "core"), ("tool.", "core"))

_DISPATCH = ("executor.dispatch", "serial.dispatch", "pool.dispatch")
_CA_TOOL = "tool.run_n1_contingency_analysis"

#: Metrics that must repeat exactly on every pass of the same code.  The
#: token counts are left out: narration quotes each turn's measured
#: runtime, and later prompts carry that text, so they drift by a token.
EXACT = (
    "core.tool_calls",
    "llm.virtual_s",
    "opf.acopf_iters",
    "contingency.outage_solves",
    "scenarios.chunks",
    "scenarios.scalar_rows",
    "powerflow.ac_warm_rows",
    "powerflow.ac_skipped_rows",
    "powerflow.dc_batch_rows",
    "powerflow.newton_calls",
    "powerflow.newton_iters",
    "telemetry.frames",
)


def layer_of(name: str) -> str | None:
    layer = _EXACT.get(name)
    if layer is not None:
        return layer
    for prefix, layer in _PREFIX:
        if name.startswith(prefix):
            return layer
    return None


def self_times(spans) -> dict[str, float]:
    """Self time per layer, subtracting same-process children only."""
    by_id = {s.span_id: s for s in spans}
    child_s: dict[str, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.pid == s.pid:
            child_s[parent.span_id] += s.duration_s
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = layer_of(s.name)
        if layer is not None:
            out[layer] += max(0.0, s.duration_s - child_s[s.span_id])
    return out


def _under(span, is_ancestor, by_id) -> bool:
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if is_ancestor(parent):
            return True
        parent = by_id.get(parent.parent_id)
    return False


def _is_monte_carlo(span) -> bool:
    return span.name == "tool.run_monte_carlo_study" or (
        span.name == "service.run_study" and span.tags.get("kind") == "monte_carlo"
    )


def monte_carlo_scalar_rows(spans) -> int:
    """Rows of Monte Carlo studies that ran the scalar loop.

    Every Monte Carlo draw is injection-only, so the batched kernels
    serve them all; any scalar row means a fast path silently fell back.
    """
    by_id = {s.span_id: s for s in spans}
    return sum(
        1 for s in spans
        if s.name == "scenario.run" and _under(s, _is_monte_carlo, by_id)
    )


def _series(delta: dict, kind: str, name: str, **labels) -> list:
    """Values of one instrument's series in a registry delta, by labels."""
    series = delta[kind].get(name, {}).get("series", {})
    want = {k: str(v) for k, v in labels.items()}
    return [v for key, v in series.items() if want.items() <= dict(key).items()]


def counts(delta: dict, replies: dict) -> dict[str, float]:
    """Count metrics of one pass: registry delta plus reply fields.

    Available on every pass, traced or not, which is what lets the
    harness check that they repeat exactly.
    """
    def counter(name, **labels):
        return sum(_series(delta, "counters", name, **labels))

    def iterations(solver):
        return sum(
            total for _counts, total in
            _series(delta, "histograms", "gridmind_solver_iterations", solver=solver)
        )

    return {
        "core.tool_calls": counter("gridmind_tool_calls_total"),
        "llm.prompt_tokens": replies.get("prompt_tokens", 0),
        "llm.completion_tokens": replies.get("completion_tokens", 0),
        "llm.virtual_s": replies.get("virtual_s", 0.0),
        "opf.acopf_iters": iterations("acopf"),
        "scenarios.chunks": sum(
            sum(counts) for counts, _total in
            _series(delta, "histograms", "gridmind_chunk_wall_seconds")
        ),
        "powerflow.ac_warm_rows": counter("gridmind_ac_warm_solves_total"),
        "powerflow.ac_skipped_rows": counter("gridmind_ac_skipped_converged_total"),
        "powerflow.dc_batch_rows": counter("gridmind_batch_rows_total", analysis="dc"),
        "powerflow.newton_calls": counter(
            "gridmind_solver_invocations_total", solver="newton"
        ),
        "powerflow.newton_iters": iterations("newton"),
        "telemetry.frames": counter("gridmind_telemetry_frames_total"),
    }


def fold(spans, delta: dict, replies: dict, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (setup and overhead excluded)."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    dispatch_wall = sum(s.duration_s for s in spans if s.name in _DISPATCH)
    chunk_busy = sum(s.duration_s for s in spans if s.name == "worker.chunk")
    out = counts(delta, replies)
    warm = out["powerflow.ac_warm_rows"]
    skipped = out["powerflow.ac_skipped_rows"]
    out.update(
        {
            "service.self_s": selfs["service"],
            "core.self_s": selfs["core"],
            "opf.self_s": selfs["opf"],
            "contingency.self_s": selfs["contingency"],
            "contingency.outage_solves": sum(
                1 for s in spans
                if s.name == "solve.newton"
                and _under(s, lambda p: p.name == _CA_TOOL, by_id)
            ),
            "scenarios.dispatch_s": selfs["scenarios.dispatch"],
            "scenarios.reduce_s": selfs["scenarios.reduce"],
            "scenarios.executor_util": (
                chunk_busy / (dispatch_wall * workers) if dispatch_wall else 0.0
            ),
            "scenarios.worker_s": selfs["scenarios.worker"],
            "scenarios.scalar_rows": sum(1 for s in spans if s.name == "scenario.run"),
            "powerflow.kernel_s": selfs["powerflow.kernel"],
            "powerflow.ac_skip_ratio": (
                skipped / (warm + skipped) if warm + skipped else 0.0
            ),
            "powerflow.solver_s": selfs["powerflow.solver"],
            "telemetry.self_s": selfs["telemetry"],
        }
    )
    return out
