"""Solver probes: one decorator giving every solver a span + metrics.

Solver entry points (:func:`~repro.powerflow.newton.solve_newton`,
:func:`~repro.opf.dcopf.solve_dcopf`, :func:`~repro.opf.acopf.solve_acopf`,
:func:`~repro.opf.scopf.solve_scopf`) are the leaves of every trace and
the densest metric source — a 10k-scenario study calls them 10k+ times.
:func:`instrument_solver` wraps one with a ``solve.<name>`` span (no-op
when tracing is off) and always-on counters/histograms: invocations and
convergence failures by solver, iterations to convergence, and wall
seconds.  Solvers report non-convergence in their result object rather
than raising, so the probe reads ``converged``/``iterations`` off the
return value.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Mapping

from .metrics import ITERATION_BUCKETS, get_metrics
from .trace import get_tracer


def record_fallbacks(span, path: str, reasons: Mapping[str, int]) -> None:
    """Count and span-tag rows a fast path handed to the scalar path.

    ``reasons`` maps each named reason (``disconnected-base``,
    ``base-diverged``, ``build-error``, ``islanded``, ``fd-stalled``,
    ``polish-diverged``, ``not-in-service``) to its row count.  Every row lands in
    ``gridmind_fastpath_fallbacks_total{path,reason}``; a recording
    ``span`` also accumulates them under its ``fallbacks`` tag.
    """
    counter = get_metrics().counter(
        "gridmind_fastpath_fallbacks_total",
        "Rows a fast path handed to the scalar path, by reason",
    )
    for reason, n in reasons.items():
        if not n:
            continue
        counter.inc(n, path=path, reason=reason)
        if span.span_id:  # the disabled tracer's shared span stays clean
            tags = span.tags.setdefault("fallbacks", {})
            tags[reason] = tags.get(reason, 0) + n


def instrument_solver(solver: str):
    """Decorate a solver entry point with tracing + always-on metrics."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick = time.perf_counter()
            with get_tracer().span(f"solve.{solver}") as span:
                res = fn(*args, **kwargs)
                converged = bool(getattr(res, "converged", True))
                iterations = getattr(res, "iterations", None)
                span.tags["converged"] = converged
                if iterations is not None:
                    span.tags["iterations"] = iterations
                if not converged:
                    span.status = "error"
                    span.error = "did not converge"
            elapsed = time.perf_counter() - tick
            metrics = get_metrics()
            metrics.counter(
                "gridmind_solver_invocations_total",
                "Solver calls by kind and outcome",
            ).inc(solver=solver, converged=converged)
            if not converged:
                metrics.counter(
                    "gridmind_solver_failures_total", "Non-converged solver calls"
                ).inc(solver=solver)
            if iterations is not None:
                metrics.histogram(
                    "gridmind_solver_iterations",
                    "Iterations to convergence",
                    buckets=ITERATION_BUCKETS,
                ).observe(float(iterations), solver=solver)
            metrics.histogram(
                "gridmind_solver_seconds", "Solver wall time"
            ).observe(elapsed, solver=solver)
            return res

        return wrapper

    return decorate
