"""E18 — Ablation: batched physics kernels vs the scalar loop.

Runs the same injection-only Monte Carlo ensemble through the scalar
per-scenario path (``run_scenario`` on one fresh worker state: realize a
network copy, compile it, solve one RHS — per scenario; chunking does
not apply to it) and through the chunk-level
batched kernels (vectorized injection replay against the cached base
compile, one stacked multi-RHS solve per chunk), across chunk sizes
1/8/64/256 for the ``dc`` study and a smaller sweep for two-stage
``screening``.  Both paths must produce bit-identical records (asserted
on every row); the table reports per-scenario wall.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble
from repro.scenarios.runner import _WorkerState

CASE = "ieee118"
SIGMA = 0.05
DC_CHUNKS = (1, 8, 64, 256)
DC_N = 256
SCREEN_CASE = "ieee14"
SCREEN_N = 32
SCREEN_CHUNK = 32
SCREEN_AC_BUDGET = 3


def _records(results):
    out = []
    for r in results:
        d = dataclasses.asdict(r)
        d["solve_time_s"] = 0.0  # wall clock, the one non-deterministic field
        out.append(d)
    return out


def _timed(analysis, net, scns, chunk, batch, **kw):
    """The records and wall time of the batched study at ``chunk``, or
    with ``batch=False`` of the scalar loop the batched path replaces."""
    config = StudyConfig(analysis=analysis, **kw)
    tick = time.perf_counter()
    if batch:
        results = BatchStudyRunner(config, chunk_size=chunk).run(net, scns).results
    else:
        state = _WorkerState(net.copy(), config)
        results = [state.run_scenario(s) for s in scns]
    return results, time.perf_counter() - tick


def _run_all():
    rows = []

    net = load_case(CASE)
    scns = monte_carlo_ensemble(n=DC_N, sigma=SIGMA, seed=18)
    for chunk in DC_CHUNKS:
        scalar, t_scalar = _timed("dc", net, scns, chunk, batch=False)
        batched, t_batch = _timed("dc", net, scns, chunk, batch=True)
        assert _records(scalar) == _records(batched), (
            f"dc chunk={chunk}: batched records differ from scalar"
        )
        rows.append(("dc", CASE, DC_N, chunk, t_scalar, t_batch))

    net = load_case(SCREEN_CASE)
    scns = monte_carlo_ensemble(n=SCREEN_N, sigma=SIGMA, seed=19)
    scalar, t_scalar = _timed(
        "screening", net, scns, SCREEN_CHUNK, batch=False,
        ac_budget=SCREEN_AC_BUDGET,
    )
    batched, t_batch = _timed(
        "screening", net, scns, SCREEN_CHUNK, batch=True,
        ac_budget=SCREEN_AC_BUDGET,
    )
    assert _records(scalar) == _records(batched), (
        "screening: batched records differ from scalar"
    )
    rows.append(("screening", SCREEN_CASE, SCREEN_N, SCREEN_CHUNK, t_scalar, t_batch))
    return rows


def test_ablation_batch_kernels(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    widths = [-10, -9, -5, -6, -14, -14, -8]
    lines = [
        fmt_row(
            ["analysis", "case", "n", "chunk", "scalar ms/scn", "batch ms/scn",
             "speedup"],
            widths,
        ),
        "-" * 78,
    ]
    dc_256_speedup = None
    for analysis, case, n, chunk, t_scalar, t_batch in rows:
        per_scalar = 1000.0 * t_scalar / n
        per_batch = 1000.0 * t_batch / n
        speedup = t_scalar / max(t_batch, 1e-9)
        if analysis == "dc" and chunk == 256:
            dc_256_speedup = speedup
        lines.append(
            fmt_row(
                [analysis, case, n, chunk,
                 f"{per_scalar:.3f}", f"{per_batch:.3f}", f"{speedup:.2f}x"],
                widths,
            )
        )
    lines += [
        "",
        f"{DC_N}-draw Monte Carlo (sigma {SIGMA:.0%}), serial dispatch; the "
        "scalar path pays realize + compile +",
        "one RHS solve per scenario, the batched path one vectorized "
        "injection replay + one stacked",
        "multi-RHS solve per chunk (both share the per-topology "
        "factorization cache).",
        "records are asserted bit-identical between the two paths on every row",
    ]
    emit(
        "ablation_batch_kernels",
        "E18 — batched physics kernels: scalar loop vs multi-RHS batches",
        lines,
    )

    if not os.environ.get("CI"):
        # Acceptance bar on a dedicated machine: at the 256-scenario
        # injection-only chunk the batched dc path is >= 3x faster per
        # scenario than the scalar loop.
        assert dc_256_speedup is not None
        assert dc_256_speedup >= 3.0, (
            f"batched dc at chunk 256 only {dc_256_speedup:.2f}x faster"
        )
