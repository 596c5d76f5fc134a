#!/usr/bin/env python
"""Tier-2 observability smoke: a traced study end to end, verified.

Runs a pooled Monte-Carlo ACOPF study through a traced
:class:`~repro.service.GridMindService`, reads the exported ``.trace``
sidecar back through the store, and asserts the structural guarantees
the tracing stack makes:

* the exported trace parses as JSON lines and shares one trace id,
* spans from at least three layers of the stack are present
  (service -> study -> dispatch -> worker chunk -> scenario -> solver),
* worker-chunk spans recorded in pool worker processes are parented
  under the dispatch span recorded in the service process,
* the metrics registry saw the study (scenarios, chunks, solver calls)
  and renders to Prometheus text exposition.

Exits nonzero on the first violated invariant; prints the rendered span
tree so CI logs double as a profiler example.

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py [n_scenarios]
"""

from __future__ import annotations

import asyncio
import sys
import tempfile

from repro.core.cli import main as cli_main
from repro.instrumentation.metrics import (
    MetricsRegistry,
    get_metrics,
    render_prometheus,
    set_metrics,
)
from repro.service import GridMindService
from repro.service.api import StudyRequest
from repro.service.store import ResultStore

#: service -> study -> dispatch -> worker -> scenario -> solver: the
#: layer cover the smoke insists on (>= 3 required by the acceptance
#: bar; we assert all six).  ACOPF rows take the per-scenario path, so
#: every scenario gets its own ``scenario.run`` span; power-flow rows
#: would go through the warm AC kernel's chunk spans instead.
REQUIRED_LAYERS = (
    "service.run_study",
    "study.run",
    "executor.dispatch",
    "worker.chunk",
    "scenario.run",
    "solve.acopf",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


async def run_traced_study(store_dir: str, n: int):
    async with GridMindService(
        max_workers=2, store_dir=store_dir, trace=True
    ) as service:
        reply = await service.run_study(StudyRequest(
            case_name="ieee14",
            kind="monte_carlo",
            n_scenarios=n,
            analysis="acopf",
            label="trace-smoke",
        ))
        return reply


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    set_metrics(MetricsRegistry())

    with tempfile.TemporaryDirectory(prefix="gridmind-trace-smoke-") as store_dir:
        reply = asyncio.run(run_traced_study(store_dir, n))
        print(f"study {reply.study_key}: {reply.n_scenarios} scenarios, "
              f"{reply.n_jobs} jobs, {reply.runtime_s:.2f}s")

        check(reply.study_key is not None, "study persisted to the store")
        check(bool(reply.trace_id), "reply carries a trace id")

        spans = ResultStore(store_dir).load_trace(reply.study_key)
        check(len(spans) > n, f"sidecar parsed ({len(spans)} spans)")
        check(
            {s["trace_id"] for s in spans} == {reply.trace_id},
            "all spans share the reply's trace id",
        )

        names = {s["name"] for s in spans}
        missing = [layer for layer in REQUIRED_LAYERS if layer not in names]
        check(not missing, f"all layers traced {REQUIRED_LAYERS}, missing={missing}")

        by_id = {s["span_id"]: s for s in spans}
        chunks = [s for s in spans if s["name"] == "worker.chunk"]
        parent_pid = next(
            s["pid"] for s in spans if s["name"] == "service.run_study"
        )
        check(
            all(c["pid"] != parent_pid for c in chunks),
            f"{len(chunks)} worker chunks ran in pool workers",
        )
        check(
            all(
                by_id[c["parent_id"]]["name"] == "executor.dispatch"
                for c in chunks
            ),
            "worker chunks are parented under the dispatch span",
        )
        scenarios = [s for s in spans if s["name"] == "scenario.run"]
        check(len(scenarios) == n, f"one span per scenario ({len(scenarios)})")

        metrics = get_metrics()
        check(
            metrics.counter("gridmind_scenarios_total").total() == float(n),
            "scenario counter merged from workers",
        )
        check(
            metrics.counter("gridmind_chunks_dispatched_total").total()
            == float(len(chunks)),
            "chunk dispatch counter matches worker chunk spans",
        )
        text = render_prometheus(metrics)
        check(
            "# TYPE gridmind_solver_iterations histogram" in text,
            "Prometheus exposition renders histograms",
        )

        print("\nrendered span tree (gridmind trace):")
        code = cli_main(["trace", reply.study_key, "--store", store_dir])
        check(code == 0, "gridmind trace renders the sidecar")

    print("\ntrace smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
