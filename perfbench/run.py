"""GridMind benchmark: one command, two workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload conversation --seed 0 --seconds 40 --trace 0

It sets the service up ``SETUPS`` times (from process start to a ready
``GridMindService`` on ieee118) and repeats passes of the workload, each
on a fresh service, until ``--seconds`` would be exceeded.  Every
operation's output is checked against ``references.json``.  With
``--trace 0`` it reports the end-to-end metrics of untraced passes; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see ``layers.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Workload inputs come from ``--seed`` modulo ``N_REF_SEEDS``; the
references for those seeds are recorded by ``record_references.py``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as far as this script can see

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
N_REF_SEEDS = 16
#: Set-ups per run (one in this process, the rest in child processes),
#: reported as their median.
SETUPS = 2
#: Worker processes of the service's pool: its default, capped by the host.
WORKERS = min(2, os.cpu_count() or 1)


def setup() -> dict:
    """Import the program, build the case, start the service; time each."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import load_case
    from repro.service import GridMindService

    tick = time.perf_counter()
    load_case(workloads.CASE)
    built = time.perf_counter()
    svc = GridMindService(max_workers=WORKERS)
    ready = time.perf_counter()
    asyncio.run(svc.aclose())
    return {
        "setup_s": ready - _T0,
        "case_build_s": built - tick,
        "service_start_s": ready - built,
    }


def setup_in_child() -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    def hwm_kb(pid) -> int:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    children: set[int] = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            children.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
    total = hwm_kb("self")
    for pid in children:
        try:
            total += hwm_kb(pid)
        except OSError:
            pass
    return total / 1024.0


def run_pass(workload: str, seed: int, traced: bool, reference: dict | None):
    """One pass of ``workload`` on a fresh service."""
    from repro.instrumentation.metrics import get_metrics, state_delta
    from repro.service import GridMindService

    async def go():
        svc = GridMindService(seed=seed, max_workers=WORKERS, trace=traced)
        try:
            run = await workloads.WORKLOADS[workload](svc, seed, reference)
            run.rss_mb = rss_mb()
            run.spans = svc.tracer.spans() if traced else []
            return run
        finally:
            await svc.aclose()

    before = get_metrics().state()
    run = asyncio.run(go())
    run.delta = state_delta(get_metrics().state(), before)
    return run


def determinism_errors(passes, folds) -> list[str]:
    """Count metrics and virtual LLM time must repeat on every pass."""
    errors = []
    first = layers.counts(passes[0].delta, passes[0].replies)
    for p in passes[1:]:
        again = layers.counts(p.delta, p.replies)
        errors += [
            f"{k}: {first[k]} then {again[k]}"
            for k in layers.EXACT if k in first and again[k] != first[k]
        ]
    for fold in folds[1:]:
        errors += [
            f"{k}: {folds[0][k]} then {fold[k]}"
            for k in layers.EXACT if fold[k] != folds[0][k]
        ]
    return errors


def end_to_end(setups, passes) -> dict:
    ops = [op for p in passes for op in p.ops]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        # Summed per-operation medians: one slow burst in one pass moves
        # one sample of one operation, not the whole figure.
        "wall_s": sum(
            statistics.median(p.ops[i].wall_s for p in passes)
            for i in range(len(passes[0].ops))
        ),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "ops_ok_frac": sum(op.ok for op in ops) / len(ops),
    }


def per_layer(setups, untraced, folds, traced_walls) -> dict:
    found = {
        "grid.case_build_s": statistics.median(s["case_build_s"] for s in setups),
        "service.start_s": statistics.median(s["service_start_s"] for s in setups),
        "instrumentation.trace_overhead": statistics.median(traced_walls)
        / statistics.median(p.wall_s for p in untraced)
        - 1.0,
    }
    for name in folds[0]:
        exact = name in layers.EXACT
        found[name] = folds[0][name] if exact else statistics.median(
            f[name] for f in folds
        )
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    setups = [setup()]
    seed = args.seed % N_REF_SEEDS
    reference = json.loads(REFERENCES.read_text())[args.workload].get(str(seed))
    if reference is None:
        print(f"perfbench: no reference for input seed {seed}", file=sys.stderr)
        return 2

    # Alternate untraced and traced passes in a traced run, so both see
    # the same machine state; stop before a pass would overrun --seconds.
    # The other set-ups run halfway through, so the passes sample the
    # host's minute-scale speed drift over a longer window at no extra cost.
    passes, traced = [], []
    measured = longest = 0.0
    while True:
        tracing = bool(args.trace) and (len(passes) + len(traced)) % 2 == 1
        tick = time.perf_counter()
        run = run_pass(args.workload, seed, tracing, reference)
        took = time.perf_counter() - tick
        measured += took
        longest = max(longest, took)
        (traced if tracing else passes).append(run)
        if len(setups) < SETUPS and measured >= args.seconds / 2:
            setups += [setup_in_child() for _ in range(SETUPS - len(setups))]
        # At least two passes, so every median has two samples (and a
        # traced run has one pass of each kind).
        enough = len(passes) + len(traced) >= 2
        if enough and measured + longest > args.seconds:
            break
    setups += [setup_in_child() for _ in range(SETUPS - len(setups))]

    every = passes + traced
    ops = [op for p in every for op in p.ops]
    failed = sum(not op.ok for op in ops)
    folds = [layers.fold(p.spans, p.delta, p.replies, WORKERS) for p in traced]
    problems = determinism_errors(every, folds)
    problems += [
        f"{n} Monte Carlo rows fell back to the scalar loop"
        for n in (layers.monte_carlo_scalar_rows(p.spans) for p in traced) if n
    ]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    # BENCHMARK.json is the one list of metric names, units and directions.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer(setups, passes, folds, [p.wall_s for p in traced])
        metrics = spec["per_layer"]
    else:
        values = end_to_end(setups, passes)
        metrics = spec["end_to_end"]
    for m in metrics:
        print(
            f"{args.workload:>12}  {m['name']:<32} {values[m['name']]:>14.6g} "
            f"{m['unit']:<6} ({m['better']} is better)"
        )
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
