"""E14 — Ablation: sliced vs unsliced reduction; index vs payload compare.

The dimensional-aggregation rework adds per-tag-value sub-reducers to the
streaming reduction and an aggregate-index sidecar to the result store.
This benchmark quantifies both halves of that trade:

* **Reducer overhead** — the same ensemble of per-scenario records is
  folded through the plain global :class:`StudyReducer` and through a
  :class:`SlicedReducer` slicing by hour-of-day (24 cells), recording
  wall-clock, per-record cost, and the parent-heap allocation peak
  (tracemalloc).  The global half of the sliced aggregate must be
  bit-identical to the unsliced one.
* **Compare latency** — two stored studies are diffed the pre-index way
  (load both full payloads, re-aggregate) and the indexed way
  (:meth:`ResultStore.compare`, which reads only the aggregate-index
  sidecars).  Both must produce identical aggregates, and the indexed
  path must keep working after the payload files are made unreadable —
  the proof that ``compare`` never touches them.

``GRIDMIND_E14_SCENARIOS`` scales the ensemble (the committed table was
recorded at 10 000, which is also the default — the records are
synthesised, so no power flow runs).
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.scenarios import (
    BatchStudyRunner,
    SlicedReducer,
    SliceSpec,
    StudyConfig,
    StudyReducer,
    aggregate_study,
    daily_profile,
)
from repro.scenarios.runner import ScenarioResult, StudyResult
from repro.service.store import ResultStore

CASE = "ieee14"
N_SCENARIOS = int(os.environ.get("GRIDMIND_E14_SCENARIOS", "10000"))
SLICE_SPEC = SliceSpec(by=("hour_of_day",), max_values=32)


def _synth_results(scenarios) -> list[ScenarioResult]:
    """Deterministic per-scenario records shaped like a profile study."""
    out = []
    for i, s in enumerate(scenarios):
        hour = s.tags["hour_of_day"]
        out.append(
            ScenarioResult(
                name=s.name,
                tags=dict(s.tags),
                converged=True,
                objective_cost=7000.0 + 120.0 * hour + 0.01 * i,
                max_loading_percent=60.0 + 1.5 * hour + (i % 13) * 0.3,
                min_voltage_pu=1.01 - 0.0005 * hour,
                n_voltage_violations=1 if hour >= 18 else 0,
            )
        )
    return out


def _time_reduce(make_reducer, results):
    """Time one reduction untraced, then re-run it traced for heap peak.

    tracemalloc's per-allocation hook inflates wall time by an order of
    magnitude and skews allocation-heavy paths hardest, so the timing and
    the heap measurement use separate, fresh reducers over the same
    records (the reduction is deterministic, so both see identical work).
    """
    reducer = make_reducer()
    tick = time.perf_counter()
    reducer.add_many(results)
    agg = reducer.result()
    wall = time.perf_counter() - tick

    traced = make_reducer()
    tracemalloc.start()
    traced.add_many(results)
    traced.result()
    _, heap_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return agg, wall, heap_peak


def _put_study(store, net, runner, scenarios, results, label):
    study = StudyResult(
        case_name=net.name,
        analysis="powerflow",
        results=results,
        runtime_s=0.0,
        slice_spec=SLICE_SPEC,
    )
    return store.put(
        net, runner.config, list(scenarios), study,
        study_kind="profile", label=label,
    )


def test_ablation_slicing(benchmark, tmp_path):
    net = load_case(CASE)
    scenarios_a = daily_profile(steps=N_SCENARIOS)
    scenarios_b = daily_profile(steps=N_SCENARIOS, trough=0.75)
    results_a = _synth_results(scenarios_a)
    results_b = _synth_results(scenarios_b)
    store = ResultStore(tmp_path / "store")
    runner = BatchStudyRunner(
        StudyConfig(
            analysis="powerflow",
            slice_by=SLICE_SPEC.by,
            slice_max_values=SLICE_SPEC.max_values,
        )
    )

    def _run_all():
        # Warm both code paths (bytecode/caches) before measuring.
        for make in (StudyReducer, lambda: SlicedReducer(SLICE_SPEC)):
            make().add_many(results_a[:500])
        plain_agg, plain_s, plain_heap = _time_reduce(StudyReducer, results_a)
        sliced_agg, sliced_s, sliced_heap = _time_reduce(
            lambda: SlicedReducer(SLICE_SPEC), results_a
        )
        key_a = _put_study(store, net, runner, scenarios_a, results_a, "day1")
        key_b = _put_study(store, net, runner, scenarios_b, results_b, "day2")

        # Pre-index comparison path: both full payloads parsed and
        # re-aggregated (what compare() did before the sidecars).
        tick = time.perf_counter()
        payload_aggs = [
            aggregate_study(
                store.load_result(k).results, slice_spec=SLICE_SPEC
            ).to_dict()
            for k in (key_a, key_b)
        ]
        payload_s = time.perf_counter() - tick

        # Indexed path: sidecars only.
        tick = time.perf_counter()
        cmp = store.compare(key_a, key_b)
        index_s = time.perf_counter() - tick
        return (
            (plain_agg, plain_s, plain_heap),
            (sliced_agg, sliced_s, sliced_heap),
            (payload_aggs, payload_s),
            (cmp, index_s),
            (key_a, key_b),
        )

    plain, sliced, payload_cmp, index_cmp, keys = benchmark.pedantic(
        _run_all, rounds=1, iterations=1
    )
    plain_agg, plain_s, plain_heap = plain
    sliced_agg, sliced_s, sliced_heap = sliced
    payload_aggs, payload_s = payload_cmp
    cmp, index_s = index_cmp

    # Acceptance: the sliced aggregate's global half is bit-identical to
    # the unsliced reduction; the indexed compare matches the payload
    # re-aggregation on both sides and reports per-hour slice deltas.
    sliced_dict = sliced_agg.to_dict()
    global_half = {k: v for k, v in sliced_dict.items() if k != "slices"}
    assert global_half == plain_agg.to_dict()
    assert sliced_dict["slices"]["hour_of_day"]["n_cells"] == 24
    assert cmp["aggregate_a"] == payload_aggs[0]
    assert cmp["aggregate_b"] == payload_aggs[1]
    assert len(cmp["delta"]["slices"]["hour_of_day"]) == 24

    # The indexed path must not need the payloads at all.
    for path in store.root.glob("*.json"):
        path.write_text("NOT JSON")
    cmp_again = store.compare(keys[0], keys[1])
    assert cmp_again["delta"] == cmp["delta"]

    per_plain = 1e6 * plain_s / N_SCENARIOS
    per_sliced = 1e6 * sliced_s / N_SCENARIOS
    widths = [30, -11, -11, -13, -14]
    lines = [
        fmt_row(
            ["Reduction", "scenarios", "time (s)", "us / record", "heap peak MB"],
            widths,
        ),
        "-" * 86,
        fmt_row(
            [
                "global reducer (unsliced)",
                N_SCENARIOS,
                round(plain_s, 3),
                round(per_plain, 2),
                round(plain_heap / 1e6, 2),
            ],
            widths,
        ),
        fmt_row(
            [
                "sliced reducer (24 cells)",
                N_SCENARIOS,
                round(sliced_s, 3),
                round(per_sliced, 2),
                round(sliced_heap / 1e6, 2),
            ],
            widths,
        ),
        "",
        fmt_row(["Compare path", "studies", "time (ms)", "", ""], widths),
        "-" * 86,
        fmt_row(
            ["payload re-aggregation", 2, round(1e3 * payload_s, 2), "", ""], widths
        ),
        fmt_row(
            ["aggregate-index sidecars", 2, round(1e3 * index_s, 2), "", ""], widths
        ),
        "",
        f"slicing overhead {sliced_s / max(plain_s, 1e-9):.2f}x on the reduction"
        f" | index compare {payload_s / max(index_s, 1e-9):.1f}x faster than payload"
        f" | global aggregate bit-identical sliced vs unsliced"
        f" | compare verified payload-free (payloads destroyed, indexes answered)"
        f" | {CASE}, {N_SCENARIOS}-step daily profile sliced by hour_of_day",
    ]
    emit(
        "ablation_slicing",
        "E14 — Sliced vs unsliced reduction; index vs payload compare "
        f"({N_SCENARIOS}-scenario daily profile)",
        lines,
    )
