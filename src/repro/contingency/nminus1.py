"""Full AC N-1 contingency sweep.

Every in-service branch is outaged once, in two tiers:

1. **Compensated warm kernel** — all outages of a chunk are solved
   stacked through :meth:`~repro.powerflow.ac_batch.AcKernel.solve_outages`:
   fast-decoupled sweeps from the base voltage through the base B'/B''
   factorizations, each row corrected by a low-rank Woodbury update for
   its missing branch (Stott & Alsac 1974; Alsac, Stott & Tinney 1983).
   No Ybus rebuild and no Jacobian factorization per outage.
2. **Scalar path** — a row the kernel hands back (the outage islands
   part of the grid, or the sweeps stall) runs :func:`analyze_single_outage`:
   islanding from the precomputed bridges, otherwise Newton warm-started
   from the base voltages, then the recovery ladder.  Its outcome is the
   scalar outcome exactly; every handoff is counted by reason.

Kernel rows agree with the scalar path under the AC parity contract:
the same converged flags and overload/violation sets, mismatches under
the same tolerance, loading within 1e-6.  The sweep runs in-process: with
the kernel an ieee118 sweep takes about 0.1 s, less than starting a
process pool.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..grid import graph as gridgraph
from ..grid.network import Network
from ..instrumentation.metrics import get_metrics
from ..instrumentation.probes import record_fallbacks
from ..instrumentation.trace import get_tracer
from ..powerflow.ac_batch import AcKernel
from ..powerflow.newton import solve_newton
from ..powerflow.solution import FlowSummary, PowerFlowResult
from .outcomes import ContingencyOutcome

log = logging.getLogger(__name__)

#: Outages per compensated-kernel call in a sweep.
_KERNEL_BLOCK = 32


@dataclass
class NMinus1Report:
    """Everything one sweep produced, plus bookkeeping for the agents."""

    case_name: str
    base: PowerFlowResult
    outcomes: list[ContingencyOutcome]
    runtime_s: float
    vmin: float = 0.94
    vmax: float = 1.06
    extras: dict = field(default_factory=dict)

    @property
    def n_contingencies(self) -> int:
        return len(self.outcomes)

    @property
    def n_violations(self) -> int:
        return sum(1 for o in self.outcomes if o.has_violations)

    @property
    def max_overload_percent(self) -> float:
        """Worst post-contingency loading across the whole sweep."""
        vals = [o.max_loading_percent for o in self.outcomes if o.converged and not o.islanded]
        return max(vals) if vals else 0.0

    def worst(self, n: int = 5) -> list[ContingencyOutcome]:
        return sorted(self.outcomes, key=lambda o: -o.severity())[:n]


def run_n_minus_1(
    net: Network,
    *,
    branch_ids: list[int] | None = None,
    vmin: float = 0.94,
    vmax: float = 1.06,
    overload_threshold: float = 100.0,
    base_result: PowerFlowResult | None = None,
    kernel=None,
) -> NMinus1Report:
    """Sweep single-branch outages and report post-contingency stress.

    ``branch_ids`` restricts the sweep (used by DC screening); by default
    every in-service branch is outaged once.  The input network is left
    untouched: the kernel only reads it, and rows handed to the scalar
    path run on a private copy.  ``kernel`` accepts an
    :class:`~repro.powerflow.ac_batch.AcKernel` for the same network:
    its cached base solve then seeds the sweep (no fresh base Newton run)
    and its factorizations serve every outage, which is what makes
    repeated sweeps over one operating point cheap.  Without one, a
    kernel is built per sweep seeded from ``base_result``.
    """
    start = time.perf_counter()
    if base_result is None and kernel is not None:
        base_result = kernel.base_result()
    base = base_result or solve_newton(net)
    if not base.converged:
        raise ValueError(
            "base case power flow does not converge; fix the operating "
            "point before running contingency analysis"
        )

    candidates = branch_ids if branch_ids is not None else net.in_service_branch_ids()
    bridges = gridgraph.bridge_branches(net)

    outcomes = _sweep(
        net, candidates, bridges, base, vmin, vmax, overload_threshold, kernel
    )
    return NMinus1Report(
        case_name=net.metadata.case_name,
        base=base,
        outcomes=outcomes,
        runtime_s=time.perf_counter() - start,
        vmin=vmin,
        vmax=vmax,
    )


def _sweep(
    net: Network,
    branch_ids: list[int],
    bridges: set[int],
    base: PowerFlowResult,
    vmin: float,
    vmax: float,
    overload_threshold: float,
    kernel: AcKernel | None,
) -> list[ContingencyOutcome]:
    """Outage ``branch_ids`` through the compensated kernel; rows it
    hands back (and ids it cannot take) run :func:`analyze_single_outage`."""
    branch_ids = [int(b) for b in branch_ids]
    fast = [
        b for b in branch_ids
        if 0 <= b < len(net.branches) and net.branches[b].in_service
    ]
    arr = net.compile()
    rate_mw = dict(zip(arr.branch_ids.tolist(), (arr.rate_a * arr.base_mva).tolist()))
    solved: dict[int, ContingencyOutcome] = {}
    with get_tracer().span(
        "chunk.ac_batch", analysis="n-1", n_scenarios=len(fast)
    ) as span:
        reasons: Counter = Counter()
        done = 0
        try:
            kernel = kernel or AcKernel(net, base=base)
            # Rows never mix, so blocking changes no result; reducing each
            # block to outcomes before the next bounds the stacked arrays
            # alive at once, and with them peak memory.
            for lo in range(0, len(fast), _KERNEL_BLOCK):
                block = fast[lo : lo + _KERNEL_BLOCK]
                tick = time.perf_counter()
                sol = kernel.solve_outages([(b,) for b in block])
                per_row = (time.perf_counter() - tick) / len(block)
                reasons.update(r for r in sol.reasons if r is not None)
                for bid, row in zip(block, sol.rows):
                    if row is not None:
                        solved[bid] = _converged_outcome(
                            net, bid, row, rate_mw, vmin, vmax,
                            overload_threshold, per_row,
                        )
                done += len(block)
        except Exception:
            log.exception(
                "N-1 outage kernel failed; %d outages take the scalar path",
                len(fast) - done,
            )
            reasons["build-error"] = len(fast) - done
        record_fallbacks(span, "n-1", reasons)
    if solved:
        get_metrics().counter(
            "gridmind_ac_outage_solves_total",
            "Branch-outage rows solved through the compensated AC kernel",
        ).inc(len(solved), path="n-1")

    # The scalar path flips branch status transiently: give it a private
    # copy, so the caller's network (and its version) stays untouched.
    work = net.copy() if len(solved) < len(branch_ids) else net
    v_base = base.extras.get("v_complex")
    return [
        solved[bid]
        if bid in solved
        else analyze_single_outage(
            work,
            bid,
            bridges=bridges,
            v_base=v_base,
            vmin=vmin,
            vmax=vmax,
            overload_threshold=overload_threshold,
        )
        for bid in branch_ids
    ]


def analyze_single_outage(
    net: Network,
    branch_id: int,
    *,
    bridges: set[int] | None = None,
    v_base: np.ndarray | None = None,
    vmin: float = 0.94,
    vmax: float = 1.06,
    overload_threshold: float = 100.0,
) -> ContingencyOutcome:
    """Evaluate one branch outage.  Mutates ``net`` only transiently."""
    br = net.branches[branch_id]
    if not br.in_service:
        raise ValueError(f"branch {branch_id} is already out of service")
    tick = time.perf_counter()

    is_bridge = (
        branch_id in bridges
        if bridges is not None
        else not gridgraph.is_connected(net, {branch_id})
    )
    if is_bridge:
        stranded = gridgraph.stranded_load_mw(net, {branch_id})
        return ContingencyOutcome(
            branch_id=branch_id,
            branch_name=br.name,
            from_bus=br.from_bus,
            to_bus=br.to_bus,
            is_transformer=br.is_transformer,
            converged=False,
            islanded=True,
            stranded_load_mw=stranded,
            solve_time_s=time.perf_counter() - tick,
            message="outage splits the network",
        )

    net.set_branch_status(branch_id, False)
    try:
        res = solve_newton(net, v0=v_base, max_iter=25)
        if not res.converged:
            # The paper's recovery behaviour: fall back through alternative
            # algorithms before declaring the contingency non-convergent.
            # The base voltage threads through every rung that takes one.
            from ..powerflow.recovery import solve_with_recovery

            res, _ = solve_with_recovery(net, tol=1e-6, v0=v_base)
    finally:
        net.set_branch_status(branch_id, True)

    if not res.converged:
        return ContingencyOutcome(
            branch_id=branch_id,
            branch_name=br.name,
            from_bus=br.from_bus,
            to_bus=br.to_bus,
            is_transformer=br.is_transformer,
            converged=False,
            solve_time_s=time.perf_counter() - tick,
            message=res.message,
        )

    arr = net.compile()
    rate_mw = dict(zip(arr.branch_ids.tolist(), (arr.rate_a * arr.base_mva).tolist()))
    return _converged_outcome(
        net, branch_id, res, rate_mw, vmin, vmax, overload_threshold,
        time.perf_counter() - tick,
    )


def _converged_outcome(
    net: Network,
    branch_id: int,
    res: FlowSummary,
    rate_mw: dict[int, float],
    vmin: float,
    vmax: float,
    overload_threshold: float,
    solve_time_s: float,
) -> ContingencyOutcome:
    """Reduce one converged post-outage solve to its outcome — the single
    reduction the kernel and scalar tiers share."""
    br = net.branches[branch_id]
    overloads = res.overloaded_branches(overload_threshold)
    violations = res.voltage_violations(vmin, vmax)
    # Curtailment exposure: MW-equivalent of flow above each rating —
    # the redispatch/shed proxy the paper's CA agent narrates with.
    curtailment = 0.0
    for bid2, pct in overloads:
        rate = rate_mw.get(bid2, 0.0)
        curtailment += max(0.0, (pct - 100.0) / 100.0) * rate

    return ContingencyOutcome(
        branch_id=branch_id,
        branch_name=br.name,
        from_bus=br.from_bus,
        to_bus=br.to_bus,
        is_transformer=br.is_transformer,
        converged=True,
        max_loading_percent=res.max_loading_percent,
        overloads=overloads,
        min_voltage_pu=res.min_voltage_pu,
        max_voltage_pu=res.max_voltage_pu,
        voltage_violations=violations,
        estimated_curtailment_mw=curtailment,
        solve_time_s=solve_time_s,
        method=res.method,
        message=res.message,
    )
