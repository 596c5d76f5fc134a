"""DC Optimal Power Flow as a linear program.

The classic lossless LP baseline: quadratic costs are piecewise-linearised
(convexity makes the epigraph formulation exact at the segment knots) and
the whole problem handed to scipy's HiGHS.  Used as the economic baseline
in the ablation benchmarks and as the feasibility oracle during synthetic
case design.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from ..grid.network import Network
from ..grid.units import rad_to_deg
from ..grid.ybus import build_b_matrices
from ..instrumentation.probes import instrument_solver
from .result import OPFResult

_SEGMENTS = 8


@instrument_solver("dcopf")
def solve_dcopf(net: Network, *, segments: int = _SEGMENTS) -> OPFResult:
    """Solve the DCOPF LP.  Variables: [theta | pg | cost epigraph y]."""
    # Imported here: scipy.optimize adds ~0.13 s to importing the package,
    # and only OPF callers need it.
    from scipy import optimize

    start = time.perf_counter()
    arr = net.compile()
    nb, ng, nl = arr.n_bus, arr.n_gen, arr.n_branch
    base = arr.base_mva

    bbus, bf, pf_shift = build_b_matrices(arr)
    p_bus_shift = np.zeros(nb)
    np.add.at(p_bus_shift, arr.f_bus, pf_shift)
    np.add.at(p_bus_shift, arr.t_bus, -pf_shift)

    cg = arr.gen_connection_matrix()

    n_var = nb + ng + ng
    c = np.zeros(n_var)
    c[nb + ng :] = 1.0  # minimise sum of epigraph variables

    # Equality: Bbus theta - Cg pg = -Pd - Pshift
    a_eq = sparse.hstack(
        [bbus, -cg, sparse.csr_matrix((nb, ng))], format="csr"
    )
    b_eq = -(arr.pd + p_bus_shift)

    rows_ub = []
    rhs_ub = []

    # Rated branch flows: |Bf theta + pf_shift| <= rate.
    rated = np.flatnonzero(arr.rate_a > 0)
    if rated.size:
        bf_r = bf[rated]
        pad = sparse.csr_matrix((rated.size, 2 * ng))
        rows_ub.append(sparse.hstack([bf_r, pad]))
        rhs_ub.append(arr.rate_a[rated] - pf_shift[rated])
        rows_ub.append(sparse.hstack([-bf_r, pad]))
        rhs_ub.append(arr.rate_a[rated] + pf_shift[rated])

    # Cost epigraph: y_i >= slope*pg_i + intercept for each segment.
    seg_rows = []
    seg_rhs = []
    for i in range(ng):
        gen = net.gens[int(arr.gen_ids[i])]
        lo, hi = arr.pmin[i], arr.pmax[i]
        knots = np.linspace(lo, hi, segments + 1)
        if hi - lo < 1e-12:
            knots = np.array([lo, lo + 1e-6])
        for k in range(len(knots) - 1):
            p0, p1 = knots[k], knots[k + 1]
            c0 = gen.cost_at(p0 * base)
            c1 = gen.cost_at(p1 * base)
            slope = (c1 - c0) / (p1 - p0)
            intercept = c0 - slope * p0
            # slope*pg - y <= -intercept
            row = sparse.lil_matrix((1, n_var))
            row[0, nb + i] = slope
            row[0, nb + ng + i] = -1.0
            seg_rows.append(row.tocsr())
            seg_rhs.append(-intercept)
    rows_ub.extend(seg_rows)
    rhs_ub.extend(np.atleast_1d(r) for r in seg_rhs)

    a_ub = sparse.vstack(rows_ub, format="csr")
    b_ub = np.concatenate([np.atleast_1d(r) for r in rhs_ub])

    ref = int(arr.slack_buses[0])
    bounds = (
        [(None, None) if i != ref else (arr.va0[ref], arr.va0[ref]) for i in range(nb)]
        + [(arr.pmin[i], arr.pmax[i]) for i in range(ng)]
        + [(None, None)] * ng
    )

    lp = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )

    runtime = time.perf_counter() - start
    if not lp.success:
        return _failed_result(arr, runtime, f"DCOPF infeasible: {lp.message}")

    theta = lp.x[:nb]
    pg = lp.x[nb : nb + ng]
    flows = bf @ theta + pf_shift
    with np.errstate(divide="ignore", invalid="ignore"):
        loading = np.where(arr.rate_a > 0, 100.0 * np.abs(flows) / arr.rate_a, 0.0)

    # Exact polynomial cost at the LP dispatch (reported objective).
    true_cost = sum(
        net.gens[int(arr.gen_ids[i])].cost_at(pg[i] * base) for i in range(ng)
    )
    lmp = -lp.eqlin.marginals / base if hasattr(lp, "eqlin") else np.zeros(nb)

    return OPFResult(
        converged=True,
        objective_cost=float(true_cost),
        method="dcopf-lp",
        iterations=int(lp.nit) if hasattr(lp, "nit") else 0,
        vm=np.ones(nb),
        va_deg=rad_to_deg(theta),
        pg_mw=pg * base,
        qg_mvar=np.zeros(ng),
        gen_ids=arr.gen_ids.copy(),
        loading_percent=loading,
        s_from_mva=np.abs(flows) * base,
        s_to_mva=np.abs(flows) * base,
        branch_ids=arr.branch_ids.copy(),
        losses_mw=0.0,
        lmp_mw=lmp,
        branch_mu=np.zeros(nl),
        max_power_balance_mismatch_pu=float(np.max(np.abs(a_eq @ lp.x - b_eq))),
        runtime_s=runtime,
        message=f"piecewise-linear LP ({segments} segments/gen)",
        extras={"lp_objective": float(lp.fun)},
    )


def _failed_result(arr, runtime: float, message: str) -> OPFResult:
    nb, ng, nl = arr.n_bus, arr.n_gen, arr.n_branch
    return OPFResult(
        converged=False,
        objective_cost=float("nan"),
        method="dcopf-lp",
        iterations=0,
        vm=np.ones(nb),
        va_deg=np.zeros(nb),
        pg_mw=np.zeros(ng),
        qg_mvar=np.zeros(ng),
        gen_ids=arr.gen_ids.copy(),
        loading_percent=np.zeros(nl),
        s_from_mva=np.zeros(nl),
        s_to_mva=np.zeros(nl),
        branch_ids=arr.branch_ids.copy(),
        losses_mw=0.0,
        lmp_mw=np.zeros(nb),
        branch_mu=np.zeros(nl),
        max_power_balance_mismatch_pu=float("inf"),
        runtime_s=runtime,
        message=message,
    )
