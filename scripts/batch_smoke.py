#!/usr/bin/env python
"""Tier-2 batch-kernel smoke: batched == scalar end to end, counters live.

Runs the same injection-only Monte Carlo ensemble through the ``dc``
study twice over one shared-executor pool — once in default chunks,
which take the chunk-level batched kernels, once in singleton chunks,
which never batch and so take the scalar per-scenario loop — then
asserts the guarantees the batch layer makes:

* per-scenario records are bit-identical between the two runs (timing
  zeroed), and so are the aggregates and the store's results digest,
* the batched run engaged the kernel fast path
  (``gridmind_batch_solves_total`` > 0, one row per scenario in
  ``gridmind_batch_rows_total``, merged back from pool workers),
* the scalar run never touched it (both counters zero),
* scenario accounting is identical either way
  (``gridmind_scenarios_total`` bills every scenario exactly once),
* the batched study rerun in-process builds one connectivity graph
  (the worker state checks its base once, not once per chunk) and
  gives the pooled run's records.

Exits nonzero on the first violated invariant.

Usage::

    PYTHONPATH=src python scripts/batch_smoke.py [n_scenarios]
"""

from __future__ import annotations

import dataclasses
import sys

from repro.grid import graph as gridgraph
from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.service import StudyExecutor
from repro.service.store import _results_digest


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def run_study(executor, net, scns, *, chunk_size: int | None):
    """The dc study on ``executor`` with its own metrics registry;
    ``chunk_size=1`` never batches (the batched path needs two rows)."""
    registry = MetricsRegistry()
    set_metrics(registry)
    study = BatchStudyRunner(
        StudyConfig(analysis="dc"), executor=executor, chunk_size=chunk_size
    ).run(net, scns)
    return study, registry


def run_in_process_counting_graphs(net, scns):
    """The batched study in-process, with every ``to_graph`` counted."""
    build = gridgraph.to_graph
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return build(*args, **kwargs)

    gridgraph.to_graph = counted
    try:
        study = BatchStudyRunner(
            StudyConfig(analysis="dc"), chunk_size=16
        ).run(net, scns)
    finally:
        gridgraph.to_graph = build
    return study, calls


def records(study) -> list[dict]:
    out = []
    for r in study.results:
        d = dataclasses.asdict(r)
        d["solve_time_s"] = 0.0  # wall clock, the one timing field
        out.append(d)
    return out


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    net = load_case("ieee57")
    scns = monte_carlo_ensemble(n=n, sigma=0.05, seed=7)

    with StudyExecutor(max_workers=2) as executor:
        batched, m_batched = run_study(executor, net, scns, chunk_size=None)
        scalar, m_scalar = run_study(executor, net, scns, chunk_size=1)
    print(
        f"dc study on ieee57, {n} scenarios: batched {batched.runtime_s:.2f}s,"
        f" scalar {scalar.runtime_s:.2f}s"
    )

    check(
        records(batched) == records(scalar),
        f"per-scenario records bit-identical across {n} scenarios",
    )
    check(
        batched.aggregate().to_dict() == scalar.aggregate().to_dict(),
        "aggregates identical",
    )
    check(
        _results_digest(records(batched)) == _results_digest(records(scalar)),
        "store results digest identical (timing zeroed)",
    )

    solves = m_batched.counter("gridmind_batch_solves_total").total()
    rows = m_batched.counter("gridmind_batch_rows_total").total()
    check(solves > 0, f"batched run engaged the kernel fast path ({solves:.0f} solves)")
    check(rows == float(n), f"every scenario went through a batch row ({rows:.0f})")
    check(
        m_scalar.counter("gridmind_batch_solves_total").total() == 0.0,
        "scalar run never touched the batch counters",
    )
    for name, registry in (("batched", m_batched), ("scalar", m_scalar)):
        total = registry.counter("gridmind_scenarios_total").total()
        check(
            total == float(n),
            f"{name} run billed every scenario exactly once ({total:.0f})",
        )

    in_process, graphs = run_in_process_counting_graphs(net, scns)
    check(
        graphs == 1,
        f"in-process batched run built one connectivity graph ({graphs})",
    )
    check(
        records(in_process) == records(batched),
        "in-process records bit-identical to the pooled run",
    )

    print("\nbatch smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
