"""Batched DC physics kernels: one factorization, many solves.

The scaling layers above this module (streaming runner, shared executor,
telemetry watch) all multiply whatever one scenario costs, and for the
linear analyses that cost used to be dominated by redundant work: every
``solve_dc`` call re-built and re-factorized ``Bbus``, every
``compute_ptdf`` ran its own ``splu``, and a chunk of load-perturbation
scenarios — mathematically one factorized system against a stacked
right-hand-side matrix — was solved one column at a time.

:class:`DcKernel` owns the sparse LU of ``Bbus[keep, keep]`` for one
*electrical topology* (incidence, impedances, taps, shifts, bus types —
everything except injections) and exposes:

* :meth:`solve_one` — one injection vector in, angles/flows/loadings out
  (what :func:`repro.powerflow.dc.solve_dc` now runs on),
* :meth:`solve_many` — an ``(n_scenarios, n_bus)`` stacked-injection
  matrix in, the whole batch out via one multi-RHS ``lu.solve`` with
  vectorized loading checks,
* :meth:`ptdf` / :meth:`ptdf_row` — the PTDF matrix (or a single branch
  row) through the *same* LU, so factor computation and screening never
  pay a second factorization.

Bit-identity is a hard contract here, not an aspiration: SuperLU's
multi-RHS triangular solve processes columns independently in the same
order as single-RHS solves, and every surrounding operation (RHS
assembly, flow recovery, loading checks) is written so the batched path
performs the exact same floating-point operations per scenario as N
scalar calls.  The test suite asserts equality with ``==``, not
``allclose``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import linalg as sla

from ..grid.network import Network, NetworkArrays
from ..grid.ybus import build_b_matrices


#: Right-hand sides per triangular solve.  A wider SuperLU solve crosses
#: OpenBLAS's threading threshold, and on a small host the thread
#: hand-off dwarfs the arithmetic: the ieee118 reduced system solves 64
#: columns in 0.3 ms but 80 in 16 ms and 127 in 60 ms on 2 vCPUs.  No
#: column's arithmetic reads another's, so blocking is bit-identical.
RHS_BLOCK = 64


def solve_blocked(lu: sla.SuperLU, rhs: np.ndarray) -> np.ndarray:
    """``lu.solve(rhs)`` for one right-hand side ``(n,)`` or a stack of
    them as columns ``(n, k)``, :data:`RHS_BLOCK` columns per solve.

    The one multi-RHS solve of the DC and AC kernels.  SuperLU copies
    each block to Fortran order and solves its columns independently,
    so the result is the unblocked solve's, bit for bit and in the same
    (Fortran) layout, at any width and from any input layout.
    """
    if rhs.ndim == 1 or rhs.shape[1] <= RHS_BLOCK:
        return lu.solve(rhs)
    out = np.empty(rhs.shape, order="F")
    for j in range(0, rhs.shape[1], RHS_BLOCK):
        out[:, j:j + RHS_BLOCK] = lu.solve(rhs[:, j:j + RHS_BLOCK])
    return out


def topology_digest(arr: NetworkArrays) -> bytes:
    """Digest of everything the DC factorization depends on.

    Covers incidence, impedances, taps, shifts, and bus types but *not*
    loads or dispatch — so a load-perturbation ensemble maps onto one
    digest and therefore one factorization.  The worker state's
    :class:`~repro.scenarios.runner.TopologyCache` instances (DC and AC
    kernels, PTDF/LODF factors) all key on it.
    """
    return hashlib.blake2b(
        b"".join(
            (
                arr.branch_ids.tobytes(),
                arr.f_bus.tobytes(),
                arr.t_bus.tobytes(),
                arr.r.tobytes(),
                arr.x.tobytes(),
                arr.tap.tobytes(),
                arr.shift.tobytes(),
                arr.bus_type.tobytes(),
            )
        ),
        digest_size=16,
    ).digest()


def dc_injections(arr: NetworkArrays) -> np.ndarray:
    """Real scheduled bus injections P = Cg pg - pd (p.u.).

    Bit-identical to ``bus_power_injections(arr).real``: complex addition
    is componentwise, so negating ``pd`` and accumulating ``pg0`` in row
    order reproduces the real part exactly.
    """
    p = -arr.pd
    np.add.at(p, arr.gen_bus, arr.pg0)
    return p


class DcBatch:
    """Stacked DC solution: row ``i`` is scenario ``i`` of the batch."""

    __slots__ = ("theta", "p_flow", "loading_percent")

    def __init__(
        self, theta: np.ndarray, p_flow: np.ndarray, loading_percent: np.ndarray
    ) -> None:
        self.theta = theta  # (n, n_bus) rad
        self.p_flow = p_flow  # (n, n_branch) p.u., from->to
        self.loading_percent = loading_percent  # (n, n_branch)

    @property
    def n_scenarios(self) -> int:
        return self.theta.shape[0]

    def flows_mw(self, base_mva: float) -> np.ndarray:
        return self.p_flow * base_mva


class DcSolution:
    """One DC solution (the single-injection view of :class:`DcBatch`)."""

    __slots__ = ("theta", "p_flow", "loading_percent")

    def __init__(
        self, theta: np.ndarray, p_flow: np.ndarray, loading_percent: np.ndarray
    ) -> None:
        self.theta = theta  # (n_bus,) rad
        self.p_flow = p_flow  # (n_branch,) p.u.
        self.loading_percent = loading_percent


class DcKernel:
    """Compiled DC model for one electrical topology.

    Construction pays the one-off costs (B matrices, sparse LU of the
    reduced ``Bbus``); every solve afterwards is a triangular
    substitution.  The kernel holds the compiled snapshot it was built
    from (``arr``) for its topology-side arrays (``rate_a``,
    ``branch_ids``, ``base_mva``) — injections are supplied per solve,
    so one kernel serves every load level of its topology.
    """

    def __init__(self, arr: NetworkArrays) -> None:
        self.arr = arr
        bbus, bf, pf_shift = build_b_matrices(arr)
        self.bf = bf
        self.pf_shift = pf_shift
        self.slack = int(arr.slack_buses[0])
        self.keep = np.flatnonzero(np.arange(arr.n_bus) != self.slack)
        self.va_slack = float(arr.va0[self.slack])
        self.lu = sla.splu(bbus[np.ix_(self.keep, self.keep)].tocsc())
        # Slack coupling term, folded into every RHS: Bbus[keep, slack] * theta_s.
        self._slack_term = (
            bbus[np.ix_(self.keep, [self.slack])].toarray().ravel() * self.va_slack
        )
        # Phase-shift injections moved to buses: Cft' * pf_shift.
        p_bus_shift = np.zeros(arr.n_bus)
        np.add.at(p_bus_shift, arr.f_bus, pf_shift)
        np.add.at(p_bus_shift, arr.t_bus, -pf_shift)
        self.p_bus_shift = p_bus_shift
        self._ptdf: np.ndarray | None = None
        #: Fast-path accounting: multi-RHS solve calls and rows solved.
        self.n_batch_solves = 0
        self.n_batch_rows = 0

    @classmethod
    def from_network(cls, net: Network) -> "DcKernel":
        return cls(net.compile())

    # ------------------------------------------------------------------
    # solves
    # ------------------------------------------------------------------
    def solve_one(self, p_inj: np.ndarray) -> DcSolution:
        """Solve ``Bbus theta = P`` for one injection vector (p.u.)."""
        arr = self.arr
        theta = np.zeros(arr.n_bus)
        theta[self.slack] = self.va_slack
        rhs = (p_inj - self.p_bus_shift)[self.keep] - self._slack_term
        theta[self.keep] = solve_blocked(self.lu, rhs)
        p_flow = self.bf @ theta + self.pf_shift
        return DcSolution(theta, p_flow, self._loading(p_flow))

    def solve_many(self, p_inj: np.ndarray) -> DcBatch:
        """Solve the whole ``(n_scenarios, n_bus)`` stack in one LU pass.

        One multi-RHS triangular solve replaces N factor-and-solve round
        trips; flows come back through the same CSR multi-vector product
        the scalar path uses, so row ``i`` is bit-identical to
        ``solve_one(p_inj[i])``.
        """
        p = np.atleast_2d(np.asarray(p_inj, dtype=float))
        n = p.shape[0]
        arr = self.arr
        rhs = (p - self.p_bus_shift[np.newaxis, :])[:, self.keep] - self._slack_term[
            np.newaxis, :
        ]
        theta = np.zeros((n, arr.n_bus))
        theta[:, self.slack] = self.va_slack
        theta[:, self.keep] = solve_blocked(self.lu, rhs.T).T
        # (n_branch, n) multivector product == per-column matvec arithmetic.
        p_flow = (self.bf @ theta.T + self.pf_shift[:, np.newaxis]).T
        self.n_batch_solves += 1
        self.n_batch_rows += n
        return DcBatch(theta, p_flow, self._loading(p_flow))

    def _loading(self, p_flow: np.ndarray) -> np.ndarray:
        """Loading %% vs ``rate_a``; broadcasts over stacked flow rows."""
        rate = self.arr.rate_a
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(rate > 0, 100.0 * np.abs(p_flow) / rate, 0.0)

    # ------------------------------------------------------------------
    # sensitivities (PTDF through the same LU)
    # ------------------------------------------------------------------
    def ptdf(self) -> np.ndarray:
        """Dense PTDF matrix w.r.t. the slack, cached on the kernel."""
        if self._ptdf is None:
            arr = self.arr
            # Solve Bbus[keep,keep]^T X = Bf[:,keep]^T -> PTDF = X^T (Bbus
            # is symmetric, so the factorization above serves directly).
            rhs = np.asarray(self.bf[:, self.keep].todense()).T
            sol = solve_blocked(self.lu, rhs)
            ptdf = np.zeros((arr.n_branch, arr.n_bus))
            ptdf[:, self.keep] = sol.T
            self._ptdf = ptdf
        return self._ptdf

    def ptdf_row(self, row: int) -> np.ndarray:
        """One PTDF row (dFlow/dInjection for branch ``row``) — a single
        RHS solve instead of the full dense matrix."""
        arr = self.arr
        if not 0 <= row < arr.n_branch:
            raise IndexError(
                f"branch row {row} out of range (kernel has {arr.n_branch})"
            )
        if self._ptdf is not None:
            return self._ptdf[row].copy()
        rhs = np.asarray(self.bf[row, self.keep].todense()).ravel()
        out = np.zeros(arr.n_bus)
        out[self.keep] = solve_blocked(self.lu, rhs)
        return out
