"""The two benchmark workloads, each one pass through ``GridMindService``.

A pass runs against a service the caller created for it alone, with a
fresh pool and fresh sessions, so every pass starts from the same cache
state: the pool fork, the first kernel build and the session's
contingency cache all land inside the pass, never carried over from the
one before.  Every pass is a closed loop from one client: the next
request is sent only after the previous reply arrived.

A pass returns the operations it ran (a turn, a study request or a watch
request; each timed from the client side and checked) and the reply
fields the per-layer report needs.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

CASE = "ieee118"

CONVERSATION = (
    "Solve the IEEE 118 bus case",
    "run contingency analysis",
    "Increase the load at bus 10 to 80 MW",
    "run contingency analysis",
    "Run a 1000-draw Monte Carlo load study on ieee118",
)
SESSION = "bench"
#: Turns whose structured result is checked, by index, and their keys.
_CHECKED_TURNS = {1: "ca_0", 3: "ca_1", 4: "study"}

WATCH_TICKS = 96

#: Relative tolerance for AC figures (the fast paths promise parity, not
#: bit-identity); DC figures and every count must match exactly.
AC_TOL = 1e-6


@dataclass
class Op:
    name: str
    wall_s: float
    ok: bool


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    #: Reply fields for the per-layer report (tokens, virtual LLM time).
    replies: dict = field(default_factory=dict)
    #: Structured outputs compared with the committed references.
    outputs: dict = field(default_factory=dict)
    #: Filled in by the harness: peak resident memory, the pass's spans
    #: (traced passes only) and its metrics-registry delta.
    rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    delta: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


def _plain(value):
    """JSON round trip, so live results compare like committed ones."""
    return json.loads(json.dumps(value))


def matches(observed, reference, tol: float) -> bool:
    """Equal structure, keys, counts and strings; floats within ``tol``."""
    if isinstance(reference, dict):
        return (
            isinstance(observed, dict)
            and observed.keys() == reference.keys()
            and all(matches(observed[k], reference[k], tol) for k in reference)
        )
    if isinstance(reference, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(reference)
            and all(matches(o, r, tol) for o, r in zip(observed, reference))
        )
    if isinstance(reference, float) and not isinstance(observed, bool):
        if not isinstance(observed, (int, float)):
            return False
        return math.isclose(observed, reference, rel_tol=tol, abs_tol=tol)
    return observed == reference


async def _timed(run: Pass, name: str, call, check) -> object | None:
    """Run one operation; failed if it raises, replies not ok, or mismatches."""
    tick = time.perf_counter()
    reply, ok = None, False
    try:
        reply = await call
    except Exception:
        traceback.print_exc(file=sys.stderr)
    done = time.perf_counter()
    if reply is not None:
        try:
            ok = bool(check(reply))
        except Exception:
            traceback.print_exc(file=sys.stderr)
    if not ok:
        print(f"perfbench: operation {name!r} failed", file=sys.stderr)
    run.ops.append(Op(name, done - tick, ok))
    return reply


async def conversation(svc, seed: int, reference: dict | None) -> Pass:
    """Five turns of one session: the paper's own workload."""
    run = Pass()
    prompt = completion = 0
    virtual = 0.0
    for i, text in enumerate(CONVERSATION):
        def check(reply, key=_CHECKED_TURNS.get(i)):
            if not reply.ok:
                return False
            if key is None:
                return True
            context = svc.get_session(SESSION).context
            if key == "study":
                out = _plain(context.study_summary["aggregate"])
            else:
                ca = context.ca_result
                out = {
                    "top5": [rec.branch_id for rec in ca.critical[:5]],
                    "max_overload_percent": float(ca.max_overload_percent),
                }
            run.outputs[key] = out
            return reference is None or matches(out, reference[key], AC_TOL)

        reply = await _timed(run, f"turn{i}", svc.ask(SESSION, text), check)
        if reply is not None:
            prompt += reply.prompt_tokens
            completion += reply.completion_tokens
            virtual += reply.latency_virtual_s
    run.replies = {
        "prompt_tokens": prompt,
        "completion_tokens": completion,
        "virtual_s": virtual,
    }
    return run


async def ensemble(svc, seed: int, reference: dict | None) -> Pass:
    """Three direct study requests, then one telemetry watch."""
    from repro.service import StudyRequest, WatchRequest

    requests = {
        "mc_ac": StudyRequest(
            case_name=CASE, kind="monte_carlo", analysis="powerflow",
            n_scenarios=1000, seed=seed,
        ),
        "mc_dc": StudyRequest(
            case_name=CASE, kind="monte_carlo", analysis="dc",
            n_scenarios=10000, seed=seed,
        ),
        "n2_ac": StudyRequest(
            case_name=CASE, kind="outage", analysis="powerflow",
            n_scenarios=150, depth=2, seed=seed,
        ),
    }
    run = Pass()
    for name, request in requests.items():
        tol = 0.0 if request.analysis == "dc" else AC_TOL

        def check(reply, name=name, tol=tol):
            out = _plain(reply.summary["aggregate"])
            run.outputs[name] = out
            return reference is None or matches(out, reference[name], tol)

        await _timed(run, name, svc.run_study(request), check)

    # 400 devices, tumbling 4-tick windows, simulated pace.
    watch = WatchRequest(
        case_name=CASE, n_devices=400, n_ticks=WATCH_TICKS, window_ticks=4, seed=seed
    )
    updates = 0

    def on_update(_update):
        nonlocal updates
        updates += 1

    def check(reply):
        run.outputs["watch"] = reply.digest
        return (
            reply.n_windows == updates == WATCH_TICKS // 4
            and (reference is None or reply.digest == reference["watch"])
        )

    await _timed(run, "watch", svc.watch(watch, on_update=on_update), check)
    return run


WORKLOADS = {"conversation": conversation, "ensemble": ensemble}
