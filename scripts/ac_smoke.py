#!/usr/bin/env python
"""Tier-2 AC fast-path smoke: warm == cold under the parity contract.

Runs the same injection-only Monte Carlo ensemble through the
``powerflow`` study twice — once through the warm AC kernel
(``ac_mode="warm"``, the default) and once on the legacy per-scenario
cold solver — over the shared-executor pool path, then asserts the
guarantees the warm path makes:

* the parity contract holds row for row: identical convergence flags,
  identical overloaded-branch and voltage-violation sets, numeric
  fields within 1e-6 (Newton iterates are path-dependent, so unlike the
  DC batch layer this is *not* bit-identity),
* the warm run engaged the kernel
  (``gridmind_ac_warm_solves_total`` + ``gridmind_ac_skipped_converged_total``
  covers every scenario, merged back from pool workers),
* the cold run never touched those counters,
* scenario accounting is identical either way
  (``gridmind_scenarios_total`` bills every scenario exactly once).

Exits nonzero on the first violated invariant.

Usage::

    PYTHONPATH=src python scripts/ac_smoke.py [n_scenarios]
"""

from __future__ import annotations

import math
import sys

from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.service import StudyExecutor

ATOL = 1e-6


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def run_study(net, scns, *, mode: str):
    registry = MetricsRegistry()
    set_metrics(registry)
    with StudyExecutor(max_workers=2) as executor:
        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", ac_mode=mode),
            executor=executor,
        ).run(net, scns)
    return study, registry


def close(a, b, atol=ATOL) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=0.0, abs_tol=atol)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    net = load_case("ieee57")
    scns = monte_carlo_ensemble(n=n, sigma=0.05, seed=7)

    warm, m_warm = run_study(net, scns, mode="warm")
    cold, m_cold = run_study(net, scns, mode="cold")
    print(
        f"powerflow study on ieee57, {n} scenarios: warm {warm.runtime_s:.2f}s,"
        f" cold {cold.runtime_s:.2f}s"
    )

    parity = True
    for w, c in zip(warm.results, cold.results):
        parity = parity and (
            w.name == c.name
            and w.converged == c.converged
            and w.error == c.error
            and w.overloaded_branches == c.overloaded_branches
            and w.n_voltage_violations == c.n_voltage_violations
            and close(w.max_loading_percent, c.max_loading_percent, 1e-4)
            and close(w.min_voltage_pu, c.min_voltage_pu)
            and close(w.max_voltage_pu, c.max_voltage_pu)
            and close(w.losses_mw, c.losses_mw, 1e-4)
        )
    check(
        len(warm.results) == len(cold.results) == n and parity,
        f"parity contract holds row for row across {n} scenarios",
    )
    check(
        all(w.converged for w in warm.results),
        "every scenario converged on the warm path",
    )

    handled = (
        m_warm.counter("gridmind_ac_warm_solves_total").total()
        + m_warm.counter("gridmind_ac_skipped_converged_total").total()
    )
    check(
        handled == float(n),
        f"warm run routed every scenario through the kernel ({handled:.0f})",
    )
    check(
        m_cold.counter("gridmind_ac_warm_solves_total").total() == 0.0
        and m_cold.counter("gridmind_ac_skipped_converged_total").total() == 0.0,
        "cold run never touched the warm-kernel counters",
    )
    for name, registry in (("warm", m_warm), ("cold", m_cold)):
        total = registry.counter("gridmind_scenarios_total").total()
        check(
            total == float(n),
            f"{name} run billed every scenario exactly once ({total:.0f})",
        )

    print("\nac smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
