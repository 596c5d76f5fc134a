"""Interactive CLI chat interface (paper Appendix D.1) plus batch studies.

Plain-stdlib REPL with light ANSI colour — the paper uses Rich, which is
not available offline; the interaction loop is identical.  Run with::

    gridmind --model gpt-5-mini
    gridmind --model claude-4-sonnet --seed 7

The ``study`` subcommand runs declarative scenario studies directly
against the batch engine (no chat loop): its flags build one
:class:`~repro.scenarios.request.StudyRequest`, run by the same step as
the service and the study agent.  Studies stream: scenarios
expand lazily, chunks fold into the online reducer as they complete, and
``--progress`` (implied on a TTY) renders live delivery::

    gridmind study --case ieee118 --kind monte-carlo -n 10000 --jobs 4
    gridmind study --case ieee57 --kind sweep --lo 80 --hi 120 --analysis acopf
    gridmind study --case ieee14 --kind lhs -n 500 --analysis scopf
    gridmind study --case ieee14 --kind profile -n 96 --slice-by hour
    gridmind study --case ieee14 --kind monte-carlo -n 500 --zones 4 --rho 0.6

The ``serve`` subcommand starts the async multi-session service: one
:class:`~repro.service.GridMindService` multiplexing named conversations
over a shared study pool and (optionally) a persistent result store::

    gridmind serve                      # interactive: "alice: solve ieee 14"
    gridmind serve --demo               # scripted three-session interleave
    gridmind serve --store runs/ \
        --turn "a: sweep load 90-110% on ieee14" \
        --turn "a: sweep load 80-125% on ieee14" \
        --turn "a: compare the last two studies"

``--turn`` turns run concurrently across sessions and in order within a
session — address dependent turns (run a study, then compare it) to the
same session, or run separate ``serve`` invocations against one
``--store`` directory.

The ``watch`` subcommand builds one
:class:`~repro.telemetry.watch.WatchRequest` from its flags and streams
the simulated telemetry fleet through ``run_watch``, printing each
window's aggregate and alerts as it closes::

    gridmind watch --case ieee14 --devices 200 --ticks 24 --window 4
    gridmind watch --case ieee14 --anomaly-tick 8 --anomaly-kind load_spike
    gridmind watch --case ieee14 --pace wall --speedup 900   # live demo
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..llm.profiles import PAPER_MODELS
from ..scenarios.runner import ANALYSES
from ..telemetry import ANOMALY_KINDS
from .session import GridMindSession

_BANNER = r"""
  ____      _     _ __  __ _           _
 / ___|_ __(_) __| |  \/  (_)_ __   __| |
| |  _| '__| |/ _` | |\/| | | '_ \ / _` |
| |_| | |  | | (_| | |  | | | | | | (_| |
 \____|_|  |_|\__,_|_|  |_|_|_| |_|\__,_|
 Conversational power-system analysis (reproduction)
"""

_CYAN = "\033[96m"
_DIM = "\033[2m"
_RESET = "\033[0m"


def _supports_color(stream) -> bool:
    return hasattr(stream, "isatty") and stream.isatty()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmind",
        description="Conversational ACOPF and contingency analysis agents.",
    )
    parser.add_argument(
        "--model",
        default="gpt-5-mini",
        help=f"simulated model profile (one of: {', '.join(PAPER_MODELS)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="session RNG seed")
    parser.add_argument(
        "--ask",
        action="append",
        default=None,
        metavar="TEXT",
        help="non-interactive: process this request and exit (repeatable)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record hierarchical spans and print the span tree + critical "
        "path to stderr when done",
    )

    sub = parser.add_subparsers(dest="command")
    study = sub.add_parser(
        "study",
        help="run a declarative scenario study with the parallel batch runner",
        description=(
            "Expand a scenario family (load sweep, Monte Carlo ensemble, N-k "
            "outage combinations, daily profile) and analyse every operating "
            "point with the selected engine."
        ),
    )
    # Flags that set a StudyRequest field store under that field's name;
    # a suppressed default leaves the request's own default in force.
    study.add_argument(
        "--case", dest="case_name", metavar="CASE", required=True,
        help="case name, e.g. ieee118",
    )
    study.add_argument(
        "--kind",
        choices=("sweep", "monte-carlo", "lhs", "outage", "profile"),
        default="monte-carlo",
    )
    study.add_argument(
        "-n",
        "--scenarios",
        dest="n_scenarios",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="scenario count: draws (monte-carlo), steps (sweep/profile), "
        "combination cap (outage)",
    )
    study.add_argument("--analysis", choices=ANALYSES, default="powerflow")
    study.add_argument("--jobs", type=int, default=1, help="worker processes")
    study.add_argument(
        "--progress",
        action="store_true",
        help="print live per-chunk progress to stderr (implied on a TTY)",
    )
    study.add_argument(
        "--lo", dest="lo_percent", metavar="LO", type=float, default=argparse.SUPPRESS,
        help="band low (profile trough), %% of base; default: the family's band",
    )
    study.add_argument(
        "--hi", dest="hi_percent", metavar="HI", type=float, default=argparse.SUPPRESS,
        help="band high (profile peak), %% of base; default: the family's band",
    )
    study.add_argument(
        "--sigma", dest="sigma_percent", metavar="SIGMA", type=float,
        default=argparse.SUPPRESS,
        help="monte-carlo load std-dev, %%",
    )
    study.add_argument(
        "--depth", type=int, default=argparse.SUPPRESS, help="outages per scenario"
    )
    study.add_argument(
        "--slice-by",
        default=argparse.SUPPRESS,
        metavar="DIMS",
        help="comma-separated tag dimensions for sliced aggregation "
        "('hour', 'scale', 'zone', ...); default infers the family's "
        "natural dimension, 'none' disables slicing",
    )
    study.add_argument(
        "--zones",
        dest="n_zones",
        type=int,
        default=argparse.SUPPRESS,
        metavar="Z",
        help="monte-carlo only: draw zonal correlated load factors over "
        "this many contiguous bus zones (0 = independent per-load noise)",
    )
    study.add_argument(
        "--rho",
        type=float,
        default=0.0,
        help="monte-carlo inter-zone load correlation (with --zones), "
        "e.g. 0.6",
    )
    study.add_argument(
        "--json", action="store_true", help="emit the full study summary as JSON"
    )
    # Also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # `gridmind --seed 7 study ...` from being clobbered by a default.
    study.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="ensemble RNG seed (monte-carlo draws)",
    )
    study.add_argument(
        "--trace",
        action="store_true",
        default=argparse.SUPPRESS,
        help="trace the study (span tree + critical path on stderr)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async multi-session service (REPL or scripted turns)",
        description=(
            "Multiplex named conversations through one GridMindService: "
            "turns addressed to the same session are serialised, different "
            "sessions run concurrently, batch studies share one worker "
            "pool, and results persist to the store directory."
        ),
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="shared study-pool processes"
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory (default: a temporary one)",
    )
    serve.add_argument(
        "--turn",
        action="append",
        default=None,
        metavar="SESSION:TEXT",
        help="non-interactive: route 'name: text' through the service "
        "(repeatable; concurrent across sessions, ordered within one — "
        "give dependent turns the same session name)",
    )
    serve.add_argument(
        "--demo",
        action="store_true",
        help="run the built-in three-session interleaved demo and exit",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        default=argparse.SUPPRESS,
        help="trace every request end to end; stored studies gain a "
        "<key>.trace sidecar readable with `gridmind trace`",
    )
    serve.add_argument(
        "--metrics-file",
        default=None,
        metavar="PATH",
        help="write the Prometheus text exposition of the process metrics "
        "registry here on shutdown (after --turn/--demo runs too), so "
        "scrapes don't require embedding the service",
    )
    for flag, kwargs in (
        ("--model", {}),
        ("--seed", {"type": int}),
    ):
        serve.add_argument(
            flag, default=argparse.SUPPRESS, help=argparse.SUPPRESS, **kwargs
        )

    trace = sub.add_parser(
        "trace",
        help="render the span tree of a traced study from a result store",
        description=(
            "Load the JSON-lines trace sidecar a traced study exported "
            "next to its store payload and render the time-annotated span "
            "tree plus a critical-path summary (self time by span name). "
            "Accepts the same key / unique-prefix / label references as "
            "the rest of the store tooling."
        ),
    )
    trace.add_argument(
        "ref",
        nargs="?",
        default=None,
        help="study key, unique key prefix, or label (default: most recent)",
    )
    trace.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory the traced study was persisted to",
    )
    trace.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="read a raw JSON-lines trace file instead of a store entry",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the raw span records as JSON"
    )

    health = sub.add_parser(
        "health",
        help="one-shot health report from a store's persisted metric snapshots",
        description=(
            "Load the health-snapshot sidecar a service wrote into the "
            "store directory, evaluate the health rule set against the "
            "windowed series, and print the per-rule OK/WARN/CRIT report. "
            "Exits 1 when any rule is CRIT (for scripting and CI gates), "
            "2 on usage errors."
        ),
    )
    health.add_argument("store", help="result-store directory holding the sidecar")
    health.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    health.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evaluate rules over this trailing window (default: each "
        "rule's own window)",
    )

    top = sub.add_parser(
        "top",
        help="live console over a store's health snapshots (executor, "
        "sessions, SLOs, alerts)",
        description=(
            "Refreshing operational console: reloads the store's health "
            "sidecar every interval and renders executor occupancy, "
            "per-session rates, the worst SLO burn rates, and recent "
            "alert transitions."
        ),
    )
    top.add_argument("store", help="result-store directory holding the sidecar")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until interrupted)",
    )

    watch = sub.add_parser(
        "watch",
        help="stream a simulated telemetry fleet through rolling-window "
        "studies with live per-window summaries and alerts",
        description=(
            "Attach a deterministic simulated device fleet (meters and "
            "DERs) to a case, stream its telemetry feed tick by tick, fold "
            "every tick's operating point into rolling windows, and print "
            "each closed window's aggregate, health status, and alerts as "
            "it closes.  With --pace simulated (the default) the run is "
            "fully deterministic in (--seed, fleet spec); --pace wall "
            "plays the feed against the wall clock for live demos."
        ),
    )
    # As for study: flags store under WatchRequest field names, and a
    # suppressed default leaves the request's own default in force.
    watch.add_argument(
        "--case", dest="case_name", metavar="CASE", required=True,
        help="case name, e.g. ieee14",
    )
    watch.add_argument(
        "--devices", dest="n_devices", metavar="N", type=int, default=200,
        help="simulated meters/DERs",
    )
    watch.add_argument(
        "--ticks", dest="n_ticks", metavar="N", type=int, default=argparse.SUPPRESS,
        help="telemetry ticks to stream",
    )
    watch.add_argument(
        "--window", dest="window_ticks", type=int, default=argparse.SUPPRESS,
        metavar="TICKS", help="window size",
    )
    watch.add_argument(
        "--slide",
        dest="slide_ticks",
        type=int,
        default=argparse.SUPPRESS,
        metavar="TICKS",
        help="window slide (default: tumbling; must divide --window)",
    )
    watch.add_argument(
        "--interval",
        dest="interval_s",
        type=float,
        default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="simulated seconds per tick",
    )
    watch.add_argument(
        "--sigma", dest="sigma_percent", metavar="SIGMA", type=float,
        default=argparse.SUPPRESS,
        help="per-device noise std-dev, %%",
    )
    watch.add_argument("--analysis", choices=ANALYSES, default=argparse.SUPPRESS)
    watch.add_argument(
        "--anomaly-tick",
        type=int,
        default=argparse.SUPPRESS,
        metavar="T",
        help="inject an anomaly starting at this tick (default: clean feed)",
    )
    watch.add_argument(
        "--anomaly-duration", type=int, default=argparse.SUPPRESS, metavar="TICKS"
    )
    watch.add_argument(
        "--anomaly-kind", choices=ANOMALY_KINDS, default=argparse.SUPPRESS
    )
    watch.add_argument(
        "--anomaly-feeder",
        default=argparse.SUPPRESS,
        metavar="LABEL",
        help="limit the anomaly to one feeder (e.g. feeder_2)",
    )
    watch.add_argument(
        "--anomaly-magnitude", type=float, default=argparse.SUPPRESS, metavar="X"
    )
    watch.add_argument(
        "--pace",
        choices=("simulated", "wall"),
        default=argparse.SUPPRESS,
        help="'simulated' streams as fast as it folds; 'wall' paces ticks "
        "against the wall clock (interval / speedup per tick)",
    )
    watch.add_argument(
        "--speedup",
        type=float,
        default=argparse.SUPPRESS,
        help="wall pacing compression factor (with --pace wall)",
    )
    watch.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=1,
        help="narration verbosity (repeat for per-window slice tables)",
    )
    watch.add_argument(
        "--json", action="store_true", help="emit the full watch summary as JSON"
    )
    watch.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="fleet RNG seed (also accepted before the subcommand)",
    )
    return parser


def _request(model, args, **fields):
    """The request ``model`` a subcommand's flags describe.

    Flags that set a request field store under its name, so the request
    (not the parser) owns every default the user left unset.
    """
    given = {k: v for k, v in vars(args).items() if k in model.model_fields}
    return model(**given, **fields)


def _print_trace(tracer, stream=None) -> None:
    """Render a tracer's recorded spans to stderr (span tree + hot path)."""
    from ..instrumentation.trace import format_trace_report

    stream = stream or sys.stderr
    spans = tracer.spans()
    if not spans:
        print("[gridmind] trace: no spans recorded", file=stream)
        return
    print(f"[gridmind] trace ({len(spans)} spans):", file=stream)
    print(format_trace_report(spans), file=stream)


def _progress_printer(stream):
    """Live per-chunk progress line (carriage-return updates on a TTY)."""
    tty = _supports_color(stream)

    def show(p) -> None:
        if p.n_total:
            head = f"{p.n_done}/{p.n_total} ({100.0 * p.fraction:.0f}%)"
        else:
            head = f"{p.n_done} scenarios"
        line = (
            f"[gridmind] {head} | converged {p.n_converged} | "
            f"violations {100.0 * p.violation_rate:.0f}% | {p.elapsed_s:.1f}s"
        )
        if tty:
            print(f"\r{line}", end="", flush=True, file=stream)
            if p.n_total and p.n_done >= p.n_total:
                print(file=stream)
        else:
            print(line, file=stream)

    return show


def run_study(args) -> int:
    """Execute the ``study`` subcommand: one :class:`StudyRequest`, run by
    the step the service and the study agent run.

    The study streams: scenarios expand lazily, completed chunks fold
    into the online reducer, and ``--progress`` (implied on a TTY)
    narrates delivery live instead of waiting for the final table.
    """
    from ..grid.cases import load_case
    from ..scenarios import StudyRequest, run_study_request

    progress = None
    if args.progress or _supports_color(sys.stderr):
        progress = _progress_printer(sys.stderr)
    try:
        request = _request(StudyRequest, args, rho_percent=100.0 * args.rho)
        study, payload = run_study_request(
            request, load_case(request.case_name), n_jobs=args.jobs, progress=progress
        )
    except (KeyError, ValueError) as exc:
        # Domain errors (unknown case, bad ranges) are user input problems:
        # report them like argparse does instead of dumping a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"gridmind study: error: {message}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0

    agg = payload["aggregate"]
    print(
        f"{request.kind} study on {study.case_name}: {study.n_scenarios} scenarios, "
        f"{study.analysis} analysis, {study.n_jobs} worker(s), "
        f"{study.runtime_s:.2f}s"
    )
    print(
        f"  converged {agg['n_converged']}/{agg['n_scenarios']}"
        f" | violations in {100.0 * agg['violation_rate']:.0f}% of scenarios"
        f" | errors {agg['n_errors']}"
    )
    for label, key in (
        ("cost $/h", "cost_stats"),
        ("security $/h", "security_cost_stats"),
        ("peak loading %", "loading_stats"),
        ("min voltage pu", "min_voltage_stats"),
    ):
        stats = agg.get(key)
        if stats:
            print(
                f"  {label:>15s}: p50 {stats['p50']:.2f}  p95 {stats['p95']:.2f}  "
                f"range [{stats['min']:.2f}, {stats['max']:.2f}]"
            )
    if agg.get("branch_overload_freq"):
        worst = list(agg["branch_overload_freq"].items())[:5]
        print(
            "  overload frequency: "
            + ", ".join(f"branch {b}: {100.0 * f:.0f}%" for b, f in worst)
        )
    if agg.get("stable_critical"):
        print(
            "  stable critical branches: "
            + ", ".join(str(b) for b in agg["stable_critical"])
        )
    for dim, block in (agg.get("slices") or {}).items():
        cells = block.get("cells") or []
        if not cells:
            print(
                f"  sliced by {dim}: no scenarios carried this tag "
                f"({block.get('n_unsliced', 0)} untagged)"
            )
            continue
        head = f"  sliced by {dim} ({block['n_cells']} buckets"
        if block.get("n_overflow_values"):
            head += f", {block['n_overflow_values']} folded into __other__"
        print(head + "):")
        print(f"    {'value':>10s}  {'n':>6s}  {'viol%':>6s}  {'cost p50':>10s}  {'load p95':>9s}")
        for cell in cells:
            cost = cell.get("cost_stats")
            loading = cell.get("loading_stats")
            print(
                f"    {cell['value']:>10s}  {cell['n']:>6d}  "
                f"{100.0 * cell['violation_rate']:>6.1f}  "
                + (f"{cost['p50']:>10.2f}" if cost else f"{'-':>10s}")
                + "  "
                + (f"{loading['p95']:>9.1f}" if loading else f"{'-':>9s}")
            )
    print("  most stressed scenarios:")
    for w in payload["worst_scenarios"][:5]:
        line = f"    {w['name']}: peak loading {w['max_loading_percent']:.1f}%"
        if w.get("objective_cost") is not None:
            line += f", cost ${w['objective_cost']:,.2f}/h"
        if not w["converged"]:
            line += " (diverged)" if not w.get("error") else f" ({w['error']})"
        print(line)
    return 0


#: Scripted interleave used by ``gridmind serve --demo``: two sessions
#: converse and run sweeps concurrently (phase 1); once their studies are
#: persisted, a third, brand-new session compares them from the store
#: (phase 2 — sequenced after phase 1 because it *reads* its results).
_DEMO_PHASES: list[list[tuple[str, str]]] = [
    [
        ("alice", "Solve the IEEE 14 bus case"),
        ("bob", "Solve the IEEE 30 bus case"),
        ("alice", "Run a load sweep study from 95% to 105% in 3 steps on ieee14"),
        ("bob", "what's the network status?"),
        ("alice", "Run a load sweep study from 80% to 120% in 5 steps on ieee14"),
    ],
    [
        ("carol", "compare the last two studies"),
    ],
]


def _parse_turn(raw: str) -> tuple[str, str]:
    """Split a ``session: text`` directive (session defaults to 'main')."""
    head, sep, tail = raw.partition(":")
    if sep and head.strip() and " " not in head.strip():
        return head.strip(), tail.strip()
    return "main", raw.strip()


async def _run_turns(service, turns, *, echo: bool) -> None:
    """Schedule every turn up front (so sessions interleave), then print
    the replies in submission order."""
    tasks = [
        (sid, text, asyncio.create_task(service.ask(sid, text)))
        for sid, text in turns
    ]
    for sid, text, task in tasks:
        reply = await task
        if echo:
            print(f"> [{sid}] {text}")
        print(f"[{sid}] {reply.text}")
        print(
            f"  (turn {reply.turn} | agents: {', '.join(reply.agents)} | "
            f"llm {reply.latency_virtual_s:.1f}s + compute {reply.wall_s:.2f}s)"
        )


async def _serve_async(args) -> int:
    import tempfile

    from ..service import GridMindService

    store_ctx = None
    store_dir = args.store
    if store_dir is None:
        store_ctx = tempfile.TemporaryDirectory(prefix="gridmind-store-")
        store_dir = store_ctx.name
    service = GridMindService(
        model=getattr(args, "model", "gpt-5-mini"),
        seed=getattr(args, "seed", 0),
        max_workers=args.workers,
        store_dir=store_dir,
        trace=getattr(args, "trace", False),
    )
    try:
        if args.demo:
            print(
                f"three-session interleaved demo (store: {store_dir}, "
                f"{args.workers} shared workers)"
            )
            for phase in _DEMO_PHASES:
                await _run_turns(service, phase, echo=True)
            print(f"executor: {service.executor.stats()}")
            return 0
        if args.turn:
            await _run_turns(service, [_parse_turn(t) for t in args.turn], echo=True)
            return 0
        print(_BANNER)
        print(
            "service REPL — address sessions as 'name: request' (bare text "
            "goes to 'main'); ':sessions' lists sessions, ':quit' exits.\n"
        )
        while True:
            try:
                line = (await asyncio.to_thread(input, "gridmind*> ")).strip()
            except (EOFError, KeyboardInterrupt):
                print()
                break
            if not line:
                continue
            if line.lower() in {":quit", ":q", "quit", "exit"}:
                break
            if line.lower() == ":sessions":
                for info in service.sessions():
                    print(
                        f"  {info.session_id}: {info.n_turns} turns, "
                        f"case {info.case_name or '-'}, seed {info.seed}"
                    )
                continue
            sid, text = _parse_turn(line)
            reply = await service.ask(sid, text)
            print(f"[{sid}] {reply.text}")
        print(f"service metrics: {service.metrics()}")
        return 0
    finally:
        if getattr(args, "trace", False) and service.tracer.enabled:
            _print_trace(service.tracer)
        await service.aclose()
        metrics_file = getattr(args, "metrics_file", None)
        if metrics_file:
            # After aclose() so the exposition includes the final health
            # snapshot and every merged worker delta.
            from pathlib import Path

            Path(metrics_file).write_text(service.metrics_text())
            print(f"[gridmind] metrics written to {metrics_file}", file=sys.stderr)
        if store_ctx is not None:
            store_ctx.cleanup()


def run_serve(args) -> int:
    """Execute the ``serve`` subcommand (async service front end)."""
    return asyncio.run(_serve_async(args))


def run_trace(args) -> int:
    """Execute the ``trace`` subcommand: render a stored study's spans."""
    from ..instrumentation.trace import format_trace_report
    from ..service.store import ResultStore, StudyNotFound

    try:
        if args.file is not None:
            from pathlib import Path

            text = Path(args.file).read_text()
            spans = [json.loads(line) for line in text.splitlines() if line.strip()]
        else:
            if args.store is None:
                print(
                    "gridmind trace: error: provide --store DIR (or --file PATH)",
                    file=sys.stderr,
                )
                return 2
            store = ResultStore(args.store)
            ref = args.ref
            if ref is None:
                entries = store.list_studies()
                if not entries:
                    raise StudyNotFound(f"no stored studies in {store.root}")
                ref = entries[-1].key  # newest
            spans = store.load_trace(ref)
    except (OSError, StudyNotFound, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"gridmind trace: error: {message}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(spans, indent=2))
        return 0
    print(f"{len(spans)} spans")
    print(format_trace_report(spans))
    return 0


_STATUS_TAG = {"ok": " OK ", "warn": "WARN", "crit": "CRIT"}


def _load_store_sampler(store_dir: str):
    """Rebuild a sampler from a store's health-snapshot sidecar.

    Returns ``(sampler, error_message)``; error is set when the store
    has no usable snapshots (the caller prints it and exits 2).
    """
    from ..instrumentation.rollup import MetricsSampler
    from ..service.store import ResultStore

    store = ResultStore(store_dir)
    snaps = store.load_health_snapshots()
    if not snaps:
        return None, (
            f"no health snapshots in {store.root} (run the service with "
            "health sampling enabled against this store first)"
        )
    sampler = MetricsSampler.from_snapshots(snaps, max_samples=max(2, len(snaps)))
    if sampler.n_samples < 2:
        return None, (
            f"only {sampler.n_samples} usable snapshot(s) in {store.root}; "
            "windowed health needs at least 2"
        )
    return sampler, None


def _format_report(report) -> str:
    lines = [
        f"health: {report.status.upper()}  "
        f"({report.n_samples} snapshots spanning {report.window_span_s:.0f}s)"
    ]
    for r in report.rules:
        value = "-" if r.value is None else f"{r.value:.4g}"
        thresholds = (
            f"warn {'-' if r.warn is None else f'{r.warn:g}'}"
            f" crit {'-' if r.crit is None else f'{r.crit:g}'}"
        )
        line = (
            f"  [{_STATUS_TAG[r.status]}] {r.name:<22s} {value:>10s}"
            f"  ({thresholds}) — {r.detail}"
        )
        if r.burn_rate is not None:
            line += f" [burn {r.burn_rate:.1f}x]"
        lines.append(line)
    return "\n".join(lines)


def run_health(args) -> int:
    """Execute the ``health`` subcommand: one-shot report from a store."""
    import dataclasses

    from ..instrumentation.health import builtin_rules, evaluate_health

    sampler, error = _load_store_sampler(args.store)
    if error:
        print(f"gridmind health: error: {error}", file=sys.stderr)
        return 2
    rules = builtin_rules()
    if args.window is not None:
        rules = [dataclasses.replace(r, window_s=args.window) for r in rules]
    report = evaluate_health(sampler, rules)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_format_report(report))
    return 1 if report.status == "crit" else 0


def _render_top_frame(sampler, monitor, report) -> str:
    """One ``gridmind top`` frame as a string (testable without a TTY)."""
    import time as _time

    lines: list[str] = []
    ts = sampler.latest_ts or 0.0
    lines.append(
        f"gridmind top — {_time.strftime('%H:%M:%S', _time.localtime(ts))} "
        f"| {sampler.n_samples} snapshots over {sampler.window_span_s:.0f}s "
        f"| status {report.status.upper()}"
    )

    in_flight = sampler.gauge_value("gridmind_executor_in_flight")
    dispatch_rate = sampler.rate("gridmind_chunks_dispatched_total")
    scenario_rate = sampler.rate("gridmind_scenarios_total")
    executor_line = (
        f"executor: in-flight {'-' if in_flight is None else f'{in_flight:.0f}'}"
        f" | chunks/s {'-' if dispatch_rate is None else f'{dispatch_rate:.2f}'}"
        f" | scenarios/s {'-' if scenario_rate is None else f'{scenario_rate:.1f}'}"
    )
    lines.append(executor_line)

    batch_solves = sampler.counter_value("gridmind_batch_solves_total")
    if batch_solves:
        batch_rows = sampler.counter_value("gridmind_batch_rows_total")
        row_rate = sampler.rate("gridmind_batch_rows_total")
        lines.append(
            f"batch kernels: solves {batch_solves:.0f}"
            f" | rows {batch_rows:.0f}"
            f" | rows/s {'-' if row_rate is None else f'{row_rate:.1f}'}"
        )

    ac_warm = sampler.counter_value("gridmind_ac_warm_solves_total")
    ac_skipped = sampler.counter_value("gridmind_ac_skipped_converged_total")
    if ac_warm or ac_skipped:
        warm_rate = sampler.rate("gridmind_ac_warm_solves_total")
        lines.append(
            f"ac kernels: warm solves {ac_warm or 0:.0f}"
            f" | skipped-converged {ac_skipped or 0:.0f}"
            f" | warm/s {'-' if warm_rate is None else f'{warm_rate:.1f}'}"
        )

    sessions = sampler.label_values("gridmind_session_chunks_total", "session")
    if sessions:
        lines.append("sessions:")
        lines.append(
            f"  {'session':<12s} {'chunks':>8s} {'scen':>8s} "
            f"{'exec-s':>8s} {'scen/s':>8s}"
        )
        for sid in sessions:
            match = {"session": sid}
            chunks = sampler.counter_value("gridmind_session_chunks_total", match)
            scen = sampler.counter_value("gridmind_session_scenarios_total", match)
            wall = sampler.counter_value(
                "gridmind_session_executor_seconds_total", match
            )
            rate = sampler.rate("gridmind_session_scenarios_total", match)
            lines.append(
                f"  {sid:<12s} {chunks:>8.0f} {scen:>8.0f} {wall:>8.1f} "
                + (f"{rate:>8.1f}" if rate is not None else f"{'-':>8s}")
            )

    burning = report.worst_by_burn(3)
    if burning:
        lines.append("worst SLOs:")
        for r in burning:
            lines.append(
                f"  {r.name:<22s} burn {r.burn_rate:>6.1f}x "
                f"[{_STATUS_TAG[r.status]}] {r.detail}"
            )

    alerts = monitor.alerts()
    if alerts:
        lines.append("recent alerts:")
        for a in alerts[-5:]:
            when = _time.strftime("%H:%M:%S", _time.localtime(a.ts))
            lines.append(
                f"  #{a.seq} {when} {a.rule}: {a.previous} -> {a.status} "
                f"({a.transition})"
            )
    else:
        lines.append("recent alerts: none")
    return "\n".join(lines)


def run_top(args) -> int:
    """Execute the ``top`` subcommand: refreshing console over a store."""
    import time as _time

    from ..instrumentation.health import HealthMonitor, evaluate_health

    tty = _supports_color(sys.stdout)
    n = 0
    try:
        while True:
            sampler, error = _load_store_sampler(args.store)
            if error:
                print(f"gridmind top: error: {error}", file=sys.stderr)
                return 2
            # Replay the snapshot history through a fresh monitor so the
            # alert trail matches what a live service would have fired.
            stride = max(1, sampler.n_samples // 32)
            monitor = HealthMonitor.replay(sampler, stride=stride)
            report = evaluate_health(sampler)
            frame = _render_top_frame(sampler, monitor, report)
            if tty:
                print("\x1b[2J\x1b[H" + frame, flush=True)
            else:
                print(frame, flush=True)
            n += 1
            if args.iterations is not None and n >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def run_watch_cmd(args) -> int:
    """Execute the ``watch`` subcommand: one :class:`WatchRequest`, run by
    the engine the service and the study agent run."""
    from ..grid.cases import load_case
    from ..llm.narration import narrate_watch, narrate_watch_window
    from ..telemetry import WatchRequest, run_watch

    verbosity = min(args.verbose, 2)

    def on_window(update: dict) -> None:
        if args.json:
            return
        print(narrate_watch_window(update, verbosity), flush=True)

    try:
        request = _request(WatchRequest, args)
        out = run_watch(load_case(request.case_name), request, on_window=on_window)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"gridmind watch: error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print()
        return 0
    if args.json:
        print(json.dumps(out, indent=2, default=str))
        return 0
    print()
    print(narrate_watch(out, verbosity))
    return 0


def main(argv: list[str] | None = None) -> int:
    from contextlib import nullcontext

    from ..instrumentation.trace import Tracer, tracing

    args = build_parser().parse_args(argv)
    command = getattr(args, "command", None)
    handler = {
        "serve": run_serve,
        "trace": run_trace,
        "health": run_health,
        "top": run_top,
        "watch": run_watch_cmd,
    }.get(command)
    if handler is not None:
        return handler(args)
    # Chat turns and studies share one tracing set-up: --trace records
    # the run's spans and prints the span tree + hot path to stderr.
    with tracing(Tracer()) if args.trace else nullcontext() as tracer:
        code = run_study(args) if command == "study" else _chat(args)
    if tracer is not None:
        _print_trace(tracer)
    return code


def _chat(args) -> int:
    """The conversational REPL (or the ``--ask`` turns, then exit)."""
    color = _supports_color(sys.stdout)
    cyan = _CYAN if color else ""
    dim = _DIM if color else ""
    reset = _RESET if color else ""

    session = GridMindSession(model=args.model, seed=args.seed)

    def respond(text: str) -> None:
        reply = session.ask(text)
        rec = session.last_record
        print(f"{cyan}{reply.text}{reset}")
        if rec is not None:
            print(
                f"{dim}[{session.model} | agents: {', '.join(reply.agents_involved)} "
                f"| llm {rec.latency_virtual_s:.1f}s (simulated) "
                f"+ compute {rec.wall_s:.2f}s | "
                f"{rec.prompt_tokens}+{rec.completion_tokens} tokens]{reset}"
            )

    if args.ask:
        for text in args.ask:
            print(f"> {text}")
            respond(text)
        return 0

    print(_BANNER)
    print(
        f"model: {session.model} — type a request "
        "('Solve IEEE 14', 'run contingency analysis', ...); 'quit' to exit.\n"
    )
    while True:
        try:
            text = input("gridmind> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            break
        if not text:
            continue
        if text.lower() in {"quit", "exit", "q"}:
            break
        respond(text)

    summary = session.metrics()
    print(f"{dim}session summary: {summary}{reset}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
