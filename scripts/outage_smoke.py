#!/usr/bin/env python
"""Tier-2 outage fast-path smoke: compensated kernel == scalar path.

Two checks on ieee118:

* an N-1 sweep through ``run_n_minus_1`` (compensated warm-FD kernel,
  scalar fallback for the rows it hands back) against the scalar sweep
  (``analyze_single_outage`` per branch), row for row: identical
  converged/islanded flags, overload and voltage-violation sets, max
  loading within 1e-6, handed-back rows identical to the scalar record;
* the same N-2 outage study warm (``ac_mode="warm"``) and cold over the
  shared-executor pool: the parity contract holds record for record,
  the outage counters (``gridmind_ac_outage_solves_total`` plus the
  ``gridmind_fastpath_fallbacks_total`` handoffs) account for every
  scenario on the warm run only (merged back from pool workers), and
  scenario billing is identical either way.

Exits nonzero on the first violated invariant.

Usage::

    PYTHONPATH=src python scripts/outage_smoke.py [n_pairs]
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time

from repro.contingency.nminus1 import analyze_single_outage, run_n_minus_1
from repro.grid import graph as gridgraph
from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.powerflow import solve_newton
from repro.scenarios import BatchStudyRunner
from repro.scenarios.generators import outage_combinations
from repro.service import StudyExecutor

ATOL = 1e-6


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def close(a, b, atol=ATOL) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=atol, abs_tol=atol)


def n_minus_1(net) -> None:
    tick = time.perf_counter()
    fast = run_n_minus_1(net)
    t_fast = time.perf_counter() - tick

    tick = time.perf_counter()
    base = solve_newton(net)
    bridges = gridgraph.bridge_branches(net)
    slow = [
        analyze_single_outage(
            net, o.branch_id, bridges=bridges, v_base=base.extras["v_complex"]
        )
        for o in fast.outcomes
    ]
    t_slow = time.perf_counter() - tick
    served = sum(o.method == "fdpf-xb" for o in fast.outcomes)
    print(
        f"N-1 sweep on ieee118, {len(slow)} outages: kernel path {t_fast:.2f}s"
        f" ({served} rows served), scalar {t_slow:.2f}s"
    )

    parity = True
    for f, s in zip(fast.outcomes, slow):
        if f.method != "fdpf-xb":  # handed back: must be the scalar record
            parity = parity and dataclasses.replace(
                f, solve_time_s=0.0
            ) == dataclasses.replace(s, solve_time_s=0.0)
            continue
        parity = parity and (
            f.branch_id == s.branch_id
            and (f.converged, f.islanded) == (s.converged, s.islanded)
            and [b for b, _ in f.overloads] == [b for b, _ in s.overloads]
            and [i for i, _ in f.voltage_violations]
            == [i for i, _ in s.voltage_violations]
            and close(f.max_loading_percent, s.max_loading_percent)
            and close(f.min_voltage_pu, s.min_voltage_pu)
        )
    check(parity, f"N-1 row parity across {len(slow)} outages")
    check(served > 0.9 * len(slow), "the kernel served nearly every outage")


def run_study(net, scns, *, mode: str):
    registry = MetricsRegistry()
    set_metrics(registry)
    with StudyExecutor(max_workers=2) as executor:
        study = BatchStudyRunner(
            analysis="powerflow", executor=executor, ac_mode=mode
        ).run(net, scns)
    return study, registry


def n_minus_2(net, n: int) -> None:
    scns = outage_combinations(net, depth=2, limit=n)
    warm, m_warm = run_study(net, scns, mode="warm")
    cold, m_cold = run_study(net, scns, mode="cold")
    print(
        f"N-2 study on ieee118, {n} pairs: warm {warm.runtime_s:.2f}s,"
        f" cold {cold.runtime_s:.2f}s"
    )

    parity = True
    for w, c in zip(warm.results, cold.results):
        parity = parity and (
            (w.name, w.converged, w.error) == (c.name, c.converged, c.error)
            and w.overloaded_branches == c.overloaded_branches
            and w.n_voltage_violations == c.n_voltage_violations
            and close(w.max_loading_percent, c.max_loading_percent)
            and close(w.min_voltage_pu, c.min_voltage_pu)
            and close(w.max_voltage_pu, c.max_voltage_pu)
            and close(w.losses_mw, c.losses_mw, 1e-4)
        )
    check(
        len(warm.results) == len(cold.results) == n and parity,
        f"parity contract holds row for row across {n} pairs",
    )

    solved = m_warm.counter("gridmind_ac_outage_solves_total").value(path="study")
    handed = m_warm.counter("gridmind_fastpath_fallbacks_total").value(
        path="outage", reason="islanded"
    ) + m_warm.counter("gridmind_fastpath_fallbacks_total").value(
        path="outage", reason="fd-stalled"
    )
    check(
        solved > 0 and solved + handed == float(n),
        f"warm run: {solved:.0f} kernel rows + {handed:.0f} handoffs cover every pair",
    )
    check(
        m_cold.counter("gridmind_ac_outage_solves_total").total() == 0.0
        and m_cold.counter("gridmind_fastpath_fallbacks_total").total() == 0.0,
        "cold run never touched the outage counters",
    )
    for name, registry in (("warm", m_warm), ("cold", m_cold)):
        total = registry.counter("gridmind_scenarios_total").total()
        check(
            total == float(n),
            f"{name} run billed every scenario exactly once ({total:.0f})",
        )


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    net = load_case("ieee118")
    n_minus_1(net)
    n_minus_2(net, n)
    print("\noutage smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
