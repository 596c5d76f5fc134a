"""Full Newton-Raphson AC power flow in polar coordinates.

The production solver behind pandapower-style ``runpp`` semantics in this
repo: one sparse LU solve per iteration, optional generator Q-limit
enforcement by PV→PQ switching, and warm starts from a previous solution
(which is what makes the N-1 sweep cheap).  The Jacobian is filled over
a pattern fixed per (Ybus, PV/PQ partition) by
:class:`~repro.powerflow.jacobian.NewtonJacobian`: one assembler per
inner run, or one shared by every row of a warm AC chunk.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import linalg as sla

from ..grid.network import Network, NetworkArrays
from ..instrumentation.probes import instrument_solver
from .jacobian import NewtonJacobian
from .solution import PowerFlowResult, finalize_solution, make_admittances
from .qlimits import enforce_q_limits


def bus_power_injections(arr: NetworkArrays) -> np.ndarray:
    """Scheduled complex bus injections Sbus = generation - load (p.u.)."""
    sbus = -(arr.pd + 1j * arr.qd)
    np.add.at(sbus, arr.gen_bus, arr.pg0 + 1j * arr.qg0)
    return sbus


def _initial_voltage(arr: NetworkArrays, v0: np.ndarray | None) -> np.ndarray:
    if v0 is not None:
        if len(v0) != arr.n_bus:
            raise ValueError(
                f"warm-start voltage has {len(v0)} entries, expected {arr.n_bus}"
            )
        return np.asarray(v0, dtype=complex).copy()
    return arr.vm0 * np.exp(1j * arr.va0)


@instrument_solver("newton")
def solve_newton(
    net: Network,
    *,
    tol: float = 1e-8,
    max_iter: int = 20,
    v0: np.ndarray | None = None,
    enforce_q: bool = False,
    flat_start: bool = False,
) -> PowerFlowResult:
    """Solve the AC power flow with Newton-Raphson.

    ``v0`` warm-starts from a prior complex voltage vector; ``enforce_q``
    runs outer PV→PQ switching loops until all generator reactive limits
    hold.  Non-convergence is reported in the result, never raised — the
    contingency engine treats it as a (severe) outcome, as the paper does.
    """
    start = time.perf_counter()
    arr, adm = make_admittances(net)
    if flat_start:
        v = np.ones(arr.n_bus, dtype=complex)
        pv_slack = np.concatenate([arr.pv_buses, arr.slack_buses])
        v[pv_slack] = arr.vm0[pv_slack]
    else:
        v = _initial_voltage(arr, v0)

    bus_type = arr.bus_type.copy()
    sbus = bus_power_injections(arr)
    qg = arr.qg0.copy()

    max_outer = 10 if enforce_q else 1
    total_iters = 0
    converged = False
    mismatch = np.inf
    message = ""

    for outer in range(max_outer):
        v, converged, iters, mismatch = _newton_inner(
            NewtonJacobian(adm.ybus, bus_type), sbus, v, tol, max_iter
        )
        total_iters += iters
        if not converged:
            message = f"Newton did not converge within {max_iter} iterations"
            break
        if not enforce_q:
            break
        switched, sbus, bus_type, qg = enforce_q_limits(
            arr, adm, v, sbus, bus_type, qg
        )
        if not switched:
            break
    else:  # pragma: no cover - pathological switching cycles
        message = "Q-limit enforcement did not settle"
        converged = False

    if converged and not message:
        message = f"converged in {total_iters} iterations"

    result = finalize_solution(
        net,
        arr,
        adm,
        v,
        converged=converged,
        iterations=total_iters,
        method="newton",
        max_mismatch_pu=float(mismatch),
        runtime_s=time.perf_counter() - start,
        message=message,
    )
    if enforce_q:
        result.extras["final_bus_type"] = bus_type
    result.extras["v_complex"] = v
    return result


def _newton_inner(
    jacobian: NewtonJacobian,
    sbus: np.ndarray,
    v: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, bool, int, float]:
    """One Newton run on ``jacobian``'s Ybus and fixed PV/PQ partition."""
    ybus, pq, pvpq = jacobian.ybus, jacobian.pq, jacobian.pvpq
    n_ang = len(pvpq)

    v = v.copy()
    vm = np.abs(v)
    va = np.angle(v)

    def mismatch_vec(vc: np.ndarray) -> np.ndarray:
        mis = vc * np.conj(ybus @ vc) - sbus
        return np.concatenate([mis[pvpq].real, mis[pq].imag])

    f = mismatch_vec(v)
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    if norm < tol:
        return v, True, 0, norm

    for it in range(1, max_iter + 1):
        try:
            dx = sla.spsolve(jacobian(v), -f)
        except RuntimeError:  # singular Jacobian: voltage collapse territory
            return v, False, it, norm
        if not np.all(np.isfinite(dx)):
            return v, False, it, norm

        # Damped update: full Newton steps overshoot badly when the start
        # is far from the solution (heavy post-outage transfers).  Accept
        # the first step fraction that reduces the residual; fall back to
        # the smallest fraction if none do (this still escapes plateaus).
        # Only the updated entries are snapshotted once per iteration —
        # trial states are written in place over them, so the common case
        # (full step accepted) no longer pays two full-array copies, and
        # rejected fractions never duplicate the voltage vectors either.
        dx_va = dx[:n_ang]
        dx_vm = dx[n_ang:]
        va_base = va[pvpq].copy()
        vm_base = vm[pq].copy()
        accepted = False
        for alpha in (1.0, 0.5, 0.25, 0.125):
            va[pvpq] = va_base + alpha * dx_va
            vm[pq] = vm_base + alpha * dx_vm
            v = vm * np.exp(1j * va)
            f = mismatch_vec(v)
            norm_try = float(np.max(np.abs(f))) if f.size else 0.0
            if norm_try < norm or alpha == 0.125:
                accepted = norm_try < norm
                norm = norm_try
                break
        if norm < tol:
            return v, True, it, norm
        if not accepted and norm > 1e6:
            # Residual exploding with no descent direction: call it.
            return v, False, it, norm

    return v, False, max_iter, norm
