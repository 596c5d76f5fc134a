"""Gauss-Seidel AC power flow.

The textbook baseline: slow linear convergence, but nearly unbreakable on
small systems and useful as the last rung of the recovery ladder as well
as a teaching reference for the examples.

The sweep is a per-bus Python loop, so everything that does not depend on
the iterate is planned once per solve: each free bus's Ybus row (views of
the CSR arrays), diagonal, injection and PV flag, and the mismatch rows.
Each bus update keeps the textbook's arithmetic exactly: the row product
is numpy's dot, magnitudes come from ``np.abs`` and every other operation
rounds as the numpy scalar one it replaces, in the same order, so the
plan changes the cost of a sweep and not one bit of its result
(``tests/test_powerflow.py`` keeps the textbook loop as the reference).
"""

from __future__ import annotations

import time

import numpy as np

from ..grid.network import Network
from ..instrumentation.probes import instrument_solver
from .newton import _initial_voltage, bus_power_injections
from .solution import PowerFlowResult, finalize_solution, make_admittances

# Exact conjugate of a complex scalar, without a ufunc call.
_conj = complex.conjugate


@instrument_solver("gauss_seidel")
def solve_gauss_seidel(
    net: Network,
    *,
    tol: float = 1e-6,
    max_iter: int = 2000,
    acceleration: float = 1.4,
    v0: np.ndarray | None = None,
) -> PowerFlowResult:
    """Solve the power flow by per-bus Gauss-Seidel sweeps.

    ``acceleration`` is the usual over-relaxation factor (1.0 disables);
    ``v0`` warm-starts from a prior complex voltage vector, same as the
    Newton and fast-decoupled solvers.
    """
    start = time.perf_counter()
    arr, adm = make_admittances(net)
    ybus = adm.ybus.tocsr()

    v = _initial_voltage(arr, v0)
    sbus = bus_power_injections(arr)
    pv = set(int(b) for b in arr.pv_buses)
    slack = set(int(b) for b in arr.slack_buses)

    # The sweep plan: (bus, row values, row columns, diagonal, PV?,
    # injection) per free bus, in bus order, and the rows the mismatch
    # checks.  A PV bus's injection is its real power as a Python float:
    # ``p + 1j * q`` then rounds as the numpy scalar sum and skips its
    # conversion cost.
    ydiag = ybus.diagonal()
    indptr, indices, data = ybus.indptr, ybus.indices, ybus.data
    free = [b for b in range(arr.n_bus) if b not in slack]
    plan = [
        (
            b,
            data[indptr[b] : indptr[b + 1]],
            indices[indptr[b] : indptr[b + 1]],
            ydiag[b],
            b in pv,
            float(sbus[b].real) if b in pv else sbus[b],
        )
        for b in free
    ]
    p_rows = np.array(free, dtype=int)
    q_rows = np.array([b for b in free if b not in pv], dtype=int)

    converged = False
    it = 0
    norm = np.inf
    for it in range(1, max_iter + 1):
        for bus, row, cols, yd, is_pv, s in plan:
            vb = v[bus]
            i_other = row.dot(v[cols]) - yd * vb
            if is_pv:
                # Hold |V|; update the angle from the required injection.
                q_new = (vb * _conj(i_other + yd * vb)).imag
                s = s + 1j * q_new
                v_new = (_conj(s / vb) - i_other) / yd
                v[bus] = np.abs(vb) * v_new / np.abs(v_new)
            else:
                v_new = (_conj(s / vb) - i_other) / yd
                v[bus] = vb + acceleration * (v_new - vb)

        mis = v * np.conj(ybus @ v) - sbus
        norm = float(np.max(np.abs(np.concatenate([mis[p_rows].real, mis[q_rows].imag]))))
        if norm < tol:
            converged = True
            break

    return finalize_solution(
        net,
        arr,
        adm,
        v,
        converged=converged,
        iterations=it,
        method="gauss-seidel",
        max_mismatch_pu=norm,
        runtime_s=time.perf_counter() - start,
        message=(
            f"converged in {it} sweeps"
            if converged
            else f"Gauss-Seidel did not converge in {max_iter} sweeps"
        ),
    )
