#!/usr/bin/env python
"""Cross-domain multi-agent workflow with shared context (paper Fig. 9).

One request fans out across the planner, the ACOPF agent, and the CA
agent; the contingency step reuses the economic base point deposited by
the dispatch step through the shared typed context — the paper's
produce-validate-consume loop.  The session is then saved to disk and
resumed, demonstrating the persistence layer.

Run:  python examples/multi_agent_workflow.py [model]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import GridMindSession


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "claude-4-sonnet"
    session = GridMindSession(model=model, seed=11)

    request = (
        "Solve IEEE 118 case, then run contingency analysis and identify "
        "critical elements for reinforcement"
    )
    print(f"User : {request}\n")
    reply = session.ask(request)
    print(f"Agent:\n{reply.text}\n")

    print("workflow executed:")
    for step in reply.workflow.steps:
        print(f"  [{step.status}] {step.agent}: {step.clause[:60]}")

    print("\ncross-agent data flow through the shared context:")
    ctx = session.context
    print(f"  ACOPF deposited : ${ctx.acopf_solution.objective_cost:,.2f}/h "
          f"({'fresh' if ctx.acopf_fresh() else 'stale'})")
    print(f"  CA consumed base: ${ctx.ca_result.base_objective_cost:,.2f}/h")
    print(f"  CA cached       : {len(ctx.contingency_cache)} outage outcomes")

    print("\nfollow-up question reuses the cache (no re-sweep):")
    follow = session.ask("what's the contingency status?")
    print(f"Agent: {follow.text}")

    # --- persistence -------------------------------------------------
    path = Path(tempfile.gettempdir()) / "gridmind_session.json"
    session.save(path)
    resumed = GridMindSession(model=model, seed=11)
    resumed.resume(path)
    print(f"\nsession saved to {path} and resumed:")
    print(f"  resumed case    : {resumed.context.case_name}")
    print(f"  resumed solution: ${resumed.context.acopf_solution.objective_cost:,.2f}/h "
          f"({'fresh' if resumed.context.acopf_fresh() else 'stale'})")

    print("\ninstrumentation bench summary:")
    for key, value in session.metrics().items():
        print(f"  {key:20s} {value}")


if __name__ == "__main__":
    main()
