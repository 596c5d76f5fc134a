"""Fast-decoupled power flow (Stott & Alsac), XB and BX variants.

The B' / B'' matrices are factorised once with SuperLU and reused across
all half-iterations, which is the entire point of the method: many cheap
triangular solves instead of one Jacobian LU per Newton step.  Serves as
the mid-tier recovery/speed option between Newton and DC.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sla

from ..grid.components import BusType
from ..grid.network import Network, NetworkArrays
from ..instrumentation.probes import instrument_solver
from .newton import _initial_voltage, bus_power_injections
from .solution import PowerFlowResult, finalize_solution, make_admittances


def _series_susceptance_matrices(
    arr: NetworkArrays, variant: str
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Build (B', B'') per the XB (default) or BX scheme."""
    nb, nl = arr.n_bus, arr.n_branch
    rows = np.arange(nl)
    cf = sparse.csr_matrix((np.ones(nl), (rows, arr.f_bus)), shape=(nl, nb))
    ct = sparse.csr_matrix((np.ones(nl), (rows, arr.t_bus)), shape=(nl, nb))
    cft = cf - ct

    if variant == "xb":
        # B': ignore resistance; B'': full branch susceptance + shunts.
        bp_series = 1.0 / arr.x
        ys = 1.0 / (arr.r + 1j * arr.x)
        bpp_series = -ys.imag
    elif variant == "bx":
        ys = 1.0 / (arr.r + 1j * arr.x)
        bp_series = -ys.imag
        bpp_series = 1.0 / arr.x
    else:
        raise ValueError(f"unknown fast-decoupled variant {variant!r}")

    bp = cft.T @ sparse.diags(bp_series) @ cft
    bpp = cft.T @ sparse.diags(bpp_series) @ cft
    bpp = bpp + sparse.diags(
        np.asarray(
            cf.T @ (arr.b_charge / 2.0) + ct.T @ (arr.b_charge / 2.0)
        ).ravel()
        + arr.bs
    )
    return bp.tocsr(), bpp.tocsr()


@instrument_solver("fast_decoupled")
def solve_fast_decoupled(
    net: Network,
    *,
    tol: float = 1e-8,
    max_iter: int = 60,
    variant: str = "xb",
    v0: np.ndarray | None = None,
) -> PowerFlowResult:
    """Solve the AC power flow with the fast-decoupled method."""
    start = time.perf_counter()
    arr, adm = make_admittances(net)

    v = _initial_voltage(arr, v0)
    vm = np.abs(v)
    va = np.angle(v)

    pv = np.flatnonzero(arr.bus_type == int(BusType.PV))
    pq = np.flatnonzero(arr.bus_type == int(BusType.PQ))
    pvpq = np.concatenate([pv, pq])

    sbus = bus_power_injections(arr)
    bp, bpp = _series_susceptance_matrices(arr, variant)

    lu_p = sla.splu(bp[np.ix_(pvpq, pvpq)].tocsc())
    lu_q = sla.splu(bpp[np.ix_(pq, pq)].tocsc()) if pq.size else None

    def mismatches(vc: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        mis = vc * np.conj(adm.ybus @ vc) - sbus
        p = mis[pvpq].real / np.abs(vc[pvpq])
        q = mis[pq].imag / np.abs(vc[pq])
        full = np.concatenate([mis[pvpq].real, mis[pq].imag])
        return p, q, float(np.max(np.abs(full))) if full.size else 0.0

    converged = False
    norm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        v = vm * np.exp(1j * va)
        p_mis, _, norm = mismatches(v)
        if norm < tol:
            converged = True
            break
        va[pvpq] -= lu_p.solve(p_mis)

        v = vm * np.exp(1j * va)
        _, q_mis, norm = mismatches(v)
        if norm < tol:
            converged = True
            break
        if lu_q is not None:
            vm[pq] -= lu_q.solve(q_mis)

    v = vm * np.exp(1j * va)
    _, _, norm = mismatches(v)
    converged = converged or norm < tol

    return finalize_solution(
        net,
        arr,
        adm,
        v,
        converged=converged,
        iterations=it,
        method=f"fdpf-{variant}",
        max_mismatch_pu=norm,
        runtime_s=time.perf_counter() - start,
        message=(
            f"converged in {it} half-iteration sweeps"
            if converged
            else f"fast-decoupled ({variant}) did not converge in {max_iter} sweeps"
        ),
    )
