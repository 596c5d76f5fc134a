"""Security-constrained ACOPF via constraint generation (preventive).

The paper motivates GridMind with security-constrained operation
(Wu & Conejo [29]) and its Appendix B.4 lists "comparative studies
(economic vs. security-constrained operation)" as a supported workflow.
This module implements the classic preventive SCOPF decomposition:

1. solve the economic ACOPF,
2. screen all N-1 outages with LODF sensitivities at the current dispatch,
3. for every violated (outage k, branch l) pair, add a linear *preventive*
   constraint on the pre-contingency flows::

       |P_l + LODF[l,k] * P_k| <= rate_l * relief

   expressed through PTDF rows as a restriction of the base-case dispatch,
4. re-solve and repeat until no post-contingency violations remain (or the
   iteration budget runs out).

The post-contingency constraints are linear in bus injections (DC
sensitivities), which keeps the master problem a standard ACOPF with
extra linear inequality rows — the textbook industry formulation for
preventive security pricing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..contingency.lodf import compute_factors
from ..grid.network import Network
from ..instrumentation.probes import instrument_solver
from .acopf import ACOPFProblem, _unpack
from .ipm import IPMOptions, solve_ipm
from .result import OPFResult


@dataclass
class SecurityConstraint:
    """One active post-contingency flow restriction."""

    outage_branch: int  # branch id whose outage is covered
    limited_branch: int  # branch id whose post-outage flow is limited
    row: np.ndarray  # dense coefficient row over bus injections (p.u.)
    bound: float  # p.u. MW bound on |row @ p_inj|
    severity: float = 0.0  # violation fraction at screening time

    def describe(self) -> str:
        return (
            f"outage of branch {self.outage_branch} limits branch "
            f"{self.limited_branch} to {self.bound * 100:.0f} MW-equivalent"
        )


@dataclass
class SCOPFResult:
    """Security-constrained dispatch plus audit trail.

    ``unattainable`` lists contingency/branch pairs no preventive
    redispatch can secure at the requested relief level (load-driven
    post-outage flows) — those need remedial actions or load shedding,
    and the dispatcher should know about them rather than get a bare
    "infeasible".
    """

    opf: OPFResult
    iterations: int
    constraints: list[SecurityConstraint] = field(default_factory=list)
    unattainable: list[SecurityConstraint] = field(default_factory=list)
    violations_history: list[int] = field(default_factory=list)
    security_cost: float = 0.0  # $/h premium over the economic dispatch
    economic_cost: float = 0.0
    runtime_s: float = 0.0

    @property
    def converged(self) -> bool:
        return self.opf.converged

    @property
    def fully_secure(self) -> bool:
        return self.converged and not self.unattainable and (
            not self.violations_history or self.violations_history[-1] == 0
        )


class _SecuredProblem(ACOPFProblem):
    """ACOPF problem with additional linear security rows.

    Each security row bounds ``c' (Cg pg - pd)`` (DC post-contingency flow
    estimate) on both sides.  The rows are linear in pg only, so the
    Hessian is untouched and their gradients are constant: two rows per
    constraint, built once and stacked under the flow-limit rows' fixed
    pattern.
    """

    def __init__(self, net: Network, constraints: list[SecurityConstraint]) -> None:
        super().__init__(net)
        self.n_sec = len(constraints)
        rows = np.array([sc.row for sc in constraints]).reshape(self.n_sec, self.nb)
        self._sec_coeff = np.asarray(rows @ self.cg)  # (n_sec, ng)
        self._sec_offset = rows @ self.arr.pd  # load part, constant
        self._sec_bound = np.array([sc.bound for sc in constraints])
        # Gradient rows +coeff, -coeff per constraint, in pg columns.
        grad = np.repeat(self._sec_coeff, 2, axis=0)
        grad[1::2] *= -1.0
        rows_nz, gens_nz = np.nonzero(grad)
        self._sec_values = grad[rows_nz, gens_nz]
        self.ineq_pattern = self.ineq_pattern.stack(
            rows_nz, self.sl_pg.start + gens_nz, 2 * self.n_sec
        )

    def inequalities(self, x: np.ndarray):
        h, dh = self._flow_limits(x)
        flow = self._sec_coeff @ x[self.sl_pg] - self._sec_offset
        h_sec = np.column_stack([flow - self._sec_bound, -flow - self._sec_bound]).ravel()
        return (
            np.concatenate([h, h_sec]),
            self.ineq_pattern.fill(np.concatenate([dh, self._sec_values])),
        )


def _screen_violations(
    net: Network, dispatch_pu: np.ndarray, *, relief: float
) -> list[SecurityConstraint]:
    """LODF screen at a dispatch; return constraints for violated pairs."""
    arr = net.compile()
    factors = compute_factors(net)
    ptdf = factors.ptdf

    p_inj = np.zeros(arr.n_bus)
    np.add.at(p_inj, arr.gen_bus, dispatch_pu)
    p_inj -= arr.pd

    f0 = ptdf @ p_inj
    rate = arr.rate_a
    island = set(int(b) for b in factors.islanding_outages)

    # Keep only the *worst* outage per limited branch: near-parallel cuts
    # for the same corridor degenerate the master problem's active set
    # (classic constraint-generation hygiene).
    worst_by_limited: dict[int, tuple[float, SecurityConstraint]] = {}
    for k in range(arr.n_branch):
        if int(arr.branch_ids[k]) in island:
            continue
        post = f0 + factors.lodf[:, k] * f0[k]
        post[k] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(rate > 0, np.abs(post) / rate, 0.0)
        for l in np.flatnonzero(frac > relief):
            row = ptdf[l] + factors.lodf[l, k] * ptdf[k]
            sc = SecurityConstraint(
                outage_branch=int(arr.branch_ids[k]),
                limited_branch=int(arr.branch_ids[l]),
                row=row,
                bound=float(rate[l]) * relief,
                severity=float(frac[l]),
            )
            prev = worst_by_limited.get(sc.limited_branch)
            if prev is None or sc.severity > prev.severity:
                worst_by_limited[sc.limited_branch] = sc
    return sorted(worst_by_limited.values(), key=lambda sc: -sc.severity)


@instrument_solver("scopf")
def solve_scopf(
    net: Network,
    *,
    max_rounds: int = 8,
    relief: float = 1.0,
    max_cuts_per_round: int = 12,
    options: IPMOptions | None = None,
) -> SCOPFResult:
    """Solve the preventive security-constrained ACOPF.

    ``relief`` scales the post-contingency limit (1.0 = hard N-1 secure;
    1.1 = allow 10 % short-term emergency overload, the common operating
    practice).  Returns the secured dispatch, the security premium over
    the economic dispatch, and the set of binding security constraints.
    """
    start = time.perf_counter()
    opts = options or IPMOptions()

    base_prob = ACOPFProblem(net)
    xmin, xmax = base_prob.bounds()
    base_res = solve_ipm(
        base_prob.initial_point(), base_prob.objective, base_prob.equalities,
        base_prob.inequalities, base_prob.lagrangian_hessian, xmin, xmax, opts,
    )
    economic = _unpack(base_prob, base_res, 0.0)

    constraints: list[SecurityConstraint] = []
    unattainable: list[SecurityConstraint] = []
    seen: set[tuple[int, int]] = set()
    history: list[int] = []
    current = economic
    rounds = 0

    def _solve_master() -> OPFResult | None:
        prob = _SecuredProblem(net, constraints)
        res = solve_ipm(
            prob.initial_point(), prob.objective, prob.equalities,
            prob.inequalities, prob.lagrangian_hessian, xmin, xmax, opts,
        )
        if not res.converged:
            return None
        out = _unpack(prob, res, 0.0)
        out.method = "scopf-ipm"
        return out

    for rounds in range(1, max_rounds + 1):
        dispatch_pu = current.pg_mw / net.base_mva
        violated = _screen_violations(net, dispatch_pu, relief=relief)
        still_open = [
            sc for sc in violated
            if (sc.outage_branch, sc.limited_branch) not in seen
        ]
        history.append(len(violated))
        if not violated or not still_open:
            break
        fresh = still_open[:max_cuts_per_round]
        for sc in fresh:
            seen.add((sc.outage_branch, sc.limited_branch))
        constraints.extend(fresh)

        solved = _solve_master()
        # Some cuts may be structurally unattainable (load-driven
        # post-outage flow): drop the most severe remaining cut until the
        # master solves, and report those pairs honestly.
        while solved is None and constraints:
            worst_idx = max(
                range(len(constraints)), key=lambda i: constraints[i].severity
            )
            unattainable.append(constraints.pop(worst_idx))
            solved = _solve_master()
        if solved is None:
            break
        current = solved

    return SCOPFResult(
        opf=current,
        iterations=rounds,
        constraints=constraints,
        unattainable=unattainable,
        violations_history=history,
        security_cost=(
            current.objective_cost - economic.objective_cost
            if current.converged and economic.converged
            else float("nan")
        ),
        economic_cost=economic.objective_cost,
        runtime_s=time.perf_counter() - start,
    )
