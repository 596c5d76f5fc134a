"""ACOPF via scipy's trust-constr: the cross-check / fallback backend.

Same problem assembly as the interior-point path (:class:`ACOPFProblem`),
handed to ``scipy.optimize.minimize`` with exact constraint Jacobians.
Slower than the PDIPM but implemented completely independently on the
solver side, which makes it a meaningful agreement check in the test
suite and the recovery path when the PDIPM fails on a pathological edit.
"""

from __future__ import annotations

import time

import numpy as np

from ..grid.network import Network
from .acopf import ACOPFProblem, _unpack
from .ipm import IPMResult


def solve_acopf_scipy(
    net: Network,
    *,
    max_iter: int = 300,
    tol: float = 1e-8,
) -> "OPFResult":
    """Solve the ACOPF with ``scipy.optimize.minimize(method='trust-constr')``."""
    from scipy import optimize  # ~0.13 s to import; only this backend needs it

    from .result import OPFResult  # local to avoid an import cycle in type pos

    start = time.perf_counter()
    prob = ACOPFProblem(net)
    xmin, xmax = prob.bounds()
    x0 = prob.initial_point()

    eq = optimize.NonlinearConstraint(
        lambda x: prob.equalities(x)[0],
        0.0,
        0.0,
        jac=lambda x: prob.equalities(x)[1].toarray(),
    )
    cons = [eq]
    h0, _ = prob.inequalities(x0)
    if h0.size:
        cons.append(
            optimize.NonlinearConstraint(
                lambda x: prob.inequalities(x)[0],
                -np.inf,
                0.0,
                jac=lambda x: prob.inequalities(x)[1].toarray(),
            )
        )

    lb = np.where(np.isfinite(xmin), xmin, -1e4)
    ub = np.where(np.isfinite(xmax), xmax, 1e4)

    res = optimize.minimize(
        lambda x: prob.objective(x)[0],
        x0,
        jac=lambda x: prob.objective(x)[1],
        bounds=optimize.Bounds(lb, ub),
        constraints=cons,
        method="trust-constr",
        options={"maxiter": max_iter, "gtol": tol, "xtol": 1e-10, "verbose": 0},
    )

    g_final, _ = prob.equalities(res.x)
    feasible = float(np.max(np.abs(g_final))) < 1e-5
    converged = bool(res.success or (res.status in (1, 2) and feasible))

    lam = np.asarray(res.v[0]) if getattr(res, "v", None) else np.zeros(2 * prob.nb + 1)
    mu = (
        np.asarray(res.v[1])
        if getattr(res, "v", None) and len(res.v) > 1
        else np.zeros(2 * len(prob.rated))
    )

    ipm_like = IPMResult(
        x=res.x,
        f=float(res.fun),
        converged=converged,
        iterations=int(res.nit),
        lam_eq=-lam,  # scipy's sign convention is opposite ours
        mu_ineq=np.abs(mu),
        mu_lower=np.zeros(prob.nx),
        mu_upper=np.zeros(prob.nx),
        message=str(res.message),
    )
    out = _unpack(prob, ipm_like, time.perf_counter() - start)
    out.method = "acopf-scipy-trust-constr"
    return out
