"""AC Optimal Power Flow: polar formulation solved by the PDIPM.

Decision vector ``x = [Va | Vm | Pg | Qg]`` (angles in radians, everything
else per-unit).  Constraints:

* equality — complex power balance at every bus (2·n_bus rows) plus the
  slack angle reference,
* inequality — squared apparent-power flow limits at both ends of every
  rated branch,
* box — voltage magnitude and generator P/Q bounds.

First and second derivatives are exact (the MATPOWER formulas of
``dSbus_dV``, ``dSbr_dV``, ``d2Sbus_dV2``, ``d2Sbr_dV2`` and
``d2Abr_dV2``), so the IPM sees exact sparse curvature and converges in
the usual 10-40 iterations.  They are evaluated element by element rather
than as sparse matrix products: every voltage block of the equality
Jacobian and of the Lagrangian Hessian lives on the pattern of ``Ybus``
(plus its transpose and diagonal), and each rated-branch flow touches only
its two end buses.  :class:`ACOPFProblem` therefore fixes every callback's
CSR pattern once per problem, and each IPM call only computes a fresh
``data`` array with numpy.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from ..grid.network import Network, NetworkArrays
from ..grid.pattern import FixedPattern
from ..grid.units import rad_to_deg
from ..grid.ybus import AdmittanceMatrices, build_admittances
from ..instrumentation.probes import instrument_solver
from .costs import PolynomialCosts
from .ipm import IPMOptions, IPMResult, solve_ipm
from .result import OPFResult


def _scatter(pos: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Complex ``np.bincount``: the sum of ``values`` landing on each slot."""
    return np.bincount(pos, values.real, n) + 1j * np.bincount(pos, values.imag, n)


class ACOPFProblem:
    """Assembles callbacks for the IPM from a compiled network.

    All derivative callbacks return CSR matrices over a pattern fixed in
    ``__init__``:

    * ``P`` — the (bus, bus) pattern: Ybus' entries, their transposes, the
      diagonal, and both ends of every rated branch.  ``pr``/``pc`` are its
      rows and columns, ``ptrans`` maps each entry to its transpose and
      ``pdiag`` locates the diagonal.
    * rated-branch ends — ``rated`` rows are stacked from-ends first, then
      to-ends; row ``l`` meters bus ``br_s[l]`` with far bus ``br_o[l]``
      and self/mutual admittances ``y_ss``/``y_so``.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.arr: NetworkArrays = net.compile()
        self.adm: AdmittanceMatrices = build_admittances(self.arr)
        arr = self.arr

        self.nb = arr.n_bus
        self.ng = arr.n_gen
        self.nl = arr.n_branch
        self.nx = 2 * self.nb + 2 * self.ng

        # Variable slices.
        self.sl_va = slice(0, self.nb)
        self.sl_vm = slice(self.nb, 2 * self.nb)
        self.sl_pg = slice(2 * self.nb, 2 * self.nb + self.ng)
        self.sl_qg = slice(2 * self.nb + self.ng, self.nx)

        costs = [net.gens[int(i)].cost_coeffs for i in arr.gen_ids]
        self.costs = PolynomialCosts(costs, arr.base_mva)
        if not self.costs.is_convex():
            raise ValueError(
                "non-convex generator cost polynomial; the interior-point "
                "formulation requires convex costs"
            )

        self.cg = arr.gen_connection_matrix().tocsr()
        self.sd = arr.pd + 1j * arr.qd

        # Rated branches get flow constraints (rate 0 == unlimited).
        self.rated = np.flatnonzero(arr.rate_a > 0)
        self.rate2 = arr.rate_a[self.rated] ** 2

        self.ref = int(arr.slack_buses[0])
        self.va_ref = float(arr.va0[self.ref])

        self._build_patterns()

    def _build_patterns(self) -> None:
        nb, ng = self.nb, self.ng
        buses = np.arange(nb)
        f = self.arr.f_bus[self.rated]
        t = self.arr.t_bus[self.rated]

        # Bus-bus pattern P and Ybus' values on it.
        ybus = self.adm.ybus.tocoo()
        keys = np.unique(
            np.concatenate([ybus.row, ybus.col, buses, f, t]) * nb
            + np.concatenate([ybus.col, ybus.row, buses, t, f])
        )
        self.pr, self.pc = np.divmod(keys, nb)
        self.y = np.zeros(keys.size, dtype=complex)
        np.add.at(self.y, np.searchsorted(keys, ybus.row * nb + ybus.col), ybus.data)
        self.ptrans = np.searchsorted(keys, self.pc * nb + self.pr)
        self.pdiag = np.searchsorted(keys, buses * (nb + 1))
        npat = keys.size

        # Rated-branch ends: from-ends, then to-ends.
        nr = len(self.rated)
        yf = self.adm.yf[self.rated]
        yt = self.adm.yt[self.rated]

        def entries(ybr, cols):
            """Entry (l, cols[l]) of every row l of ``ybr``."""
            coo = ybr.tocoo()
            hit = coo.col == cols[coo.row]
            return _scatter(coo.row[hit], coo.data[hit], nr)

        self.br_s = np.concatenate([f, t])
        self.br_o = np.concatenate([t, f])
        self.y_ss = np.concatenate([entries(yf, f), entries(yt, t)])
        self.y_so = np.concatenate([entries(yf, t), entries(yt, f)])
        self.rate2_rows = np.concatenate([self.rate2, self.rate2])
        pos_ss = self.pdiag[self.br_s]
        pos_so = np.searchsorted(keys, self.br_s * nb + self.br_o)
        # P slots a row's power term lands on: (s, s) and (s, o).
        self.br_pos = np.concatenate([pos_ss, pos_so])

        # Each row's derivatives run over the local variables
        # [Va_s, Va_o, Vm_s, Vm_o]; ``br_cols`` are their columns in x and
        # ``br_hess`` the slots of their 4x4 products in the Hessian's
        # voltage values (blocks aa, av, va, vv of ``npat`` entries each).
        s, o = self.br_s, self.br_o
        self.br_cols = np.column_stack([s, o, nb + s, nb + o])
        local_pos = np.column_stack([pos_ss, pos_so, self.ptrans[pos_so], self.pdiag[o]])
        # local_pos[:, 2 * side_a + side_b] is the P slot of (bus_a, bus_b).
        side = np.array([0, 1, 0, 1])
        is_vm = np.array([0, 0, 1, 1])
        self.br_hess = (
            (2 * is_vm[:, None] + is_vm[None, :]) * npat
            + local_pos[:, 2 * side[:, None] + side[None, :]]
        )

        gens = np.arange(ng)
        gbus = self.arr.gen_bus
        pr, pc = self.pr, self.pc
        self.eq_pattern = FixedPattern(
            np.concatenate([pr, pr, gbus, nb + pr, nb + pr, nb + gbus, [2 * nb]]),
            np.concatenate([pc, nb + pc, 2 * nb + gens, pc, nb + pc, 2 * nb + ng + gens,
                            [self.ref]]),
            (2 * nb + 1, self.nx),
        )
        self.ineq_pattern = FixedPattern(
            np.repeat(np.arange(2 * nr), 4), self.br_cols.ravel(), (2 * nr, self.nx)
        )
        self.hess_pattern = FixedPattern(
            np.concatenate([pr, pr, nb + pr, nb + pr, 2 * nb + gens]),
            np.concatenate([pc, nb + pc, pc, nb + pc, 2 * nb + gens]),
            (self.nx, self.nx),
        )
        self._neg_cg = -np.ones(ng)  # -Cg's entries in both balance blocks

    # ------------------------------------------------------------------
    def initial_point(self) -> np.ndarray:
        arr = self.arr
        x0 = np.zeros(self.nx)
        x0[self.sl_va] = self.va_ref
        vm0 = np.clip(arr.vm0, arr.vmin + 1e-3, arr.vmax - 1e-3)
        x0[self.sl_vm] = vm0
        # Midpoint dispatch is the classic MIPS starting point; fall back
        # to the scheduled dispatch when it is interior.
        pg_mid = (arr.pmin + arr.pmax) / 2.0
        pg0 = np.where((arr.pg0 > arr.pmin) & (arr.pg0 < arr.pmax), arr.pg0, pg_mid)
        x0[self.sl_pg] = pg0
        x0[self.sl_qg] = (arr.qmin + arr.qmax) / 2.0
        return x0

    def warm_start_point(self) -> np.ndarray | None:
        """Starting point from a converged base power flow, if one exists.

        A different basin than the midpoint start — the multi-start logic
        in :func:`solve_acopf` uses it when the first attempt stalls.
        """
        from ..powerflow.newton import solve_newton

        pf = solve_newton(self.net)
        if not pf.converged:
            return None
        arr = self.arr
        x0 = np.zeros(self.nx)
        x0[self.sl_va] = np.deg2rad(pf.va_deg)
        x0[self.sl_vm] = np.clip(pf.vm, arr.vmin + 1e-3, arr.vmax - 1e-3)
        x0[self.sl_pg] = np.clip(arr.pg0, arr.pmin + 1e-4, arr.pmax)
        x0[self.sl_qg] = np.clip(
            pf.gen_q_mvar / arr.base_mva, arr.qmin + 1e-4, arr.qmax - 1e-4
        )
        return x0

    def flat_point(self) -> np.ndarray:
        """Fully flat start: unit voltages, mid dispatch."""
        arr = self.arr
        x0 = np.zeros(self.nx)
        x0[self.sl_va] = self.va_ref
        x0[self.sl_vm] = np.clip(np.ones(self.nb), arr.vmin + 1e-3, arr.vmax - 1e-3)
        x0[self.sl_pg] = (arr.pmin + arr.pmax) / 2.0
        x0[self.sl_qg] = (arr.qmin + arr.qmax) / 2.0
        return x0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        arr = self.arr
        xmin = np.full(self.nx, -np.inf)
        xmax = np.full(self.nx, np.inf)
        xmin[self.sl_vm] = arr.vmin
        xmax[self.sl_vm] = arr.vmax
        xmin[self.sl_pg] = arr.pmin
        xmax[self.sl_pg] = arr.pmax
        xmin[self.sl_qg] = arr.qmin
        xmax[self.sl_qg] = arr.qmax
        return xmin, xmax

    def voltage(self, x: np.ndarray) -> np.ndarray:
        return x[self.sl_vm] * np.exp(1j * x[self.sl_va])

    # ------------------------------------------------------------------
    # IPM callbacks
    # ------------------------------------------------------------------
    def objective(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        pg = x[self.sl_pg]
        f = self.costs.cost(pg)
        df = np.zeros(self.nx)
        df[self.sl_pg] = self.costs.gradient(pg)
        return f, df

    def _balance(self, x: np.ndarray, sbus: np.ndarray) -> np.ndarray:
        sg = self.cg @ (x[self.sl_pg] + 1j * x[self.sl_qg])
        mis = sbus + self.sd - sg
        return np.concatenate([mis.real, mis.imag])

    def power_balance(self, x: np.ndarray) -> np.ndarray:
        """Stacked P and Q mismatch per bus (p.u.), without derivatives."""
        v = self.voltage(x)
        return self._balance(x, v * np.conj(self.adm.ybus @ v))

    def _pattern_terms(self, v: np.ndarray) -> np.ndarray:
        """``V_i conj(Y_ij V_j)`` on every entry (i, j) of the pattern P."""
        return v[self.pr] * np.conj(self.y * v[self.pc])

    def _branch_terms(self, v: np.ndarray, vm: np.ndarray):
        """Rated-row flows and their derivatives.

        Returns ``(a_ss, a_so, s, jac)``: the self and mutual terms of the
        metered flow ``s = V_s conj(y_ss V_s + y_so V_o)`` and its complex
        derivatives over the row's local variables [Va_s, Va_o, Vm_s, Vm_o].
        """
        vs = v[self.br_s]
        a_ss = vs * np.conj(self.y_ss * vs)
        a_so = vs * np.conj(self.y_so * v[self.br_o])
        s = a_ss + a_so
        jac = np.column_stack(
            [1j * a_so, -1j * a_so, (2.0 * a_ss + a_so) / vm[self.br_s], a_so / vm[self.br_o]]
        )
        return a_ss, a_so, s, jac

    def equalities(self, x: np.ndarray) -> tuple[np.ndarray, sparse.csr_matrix]:
        v = self.voltage(x)
        vm = x[self.sl_vm]
        sbus = v * np.conj(self.adm.ybus @ v)
        g = np.concatenate([self._balance(x, sbus), [x[self.ref] - self.va_ref]])

        a = self._pattern_terms(v)
        ds_dva = -1j * a
        ds_dva[self.pdiag] += 1j * sbus
        ds_dvm = a / vm[self.pc]
        ds_dvm[self.pdiag] += sbus / vm
        values = np.concatenate([
            ds_dva.real, ds_dvm.real, self._neg_cg,
            ds_dva.imag, ds_dvm.imag, self._neg_cg, [1.0],
        ])
        return g, self.eq_pattern.fill(values)

    def _flow_limits(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flow-limit values and their gradient values (source order)."""
        _, _, s, jac = self._branch_terms(self.voltage(x), x[self.sl_vm])
        h = np.abs(s) ** 2 - self.rate2_rows
        dh = 2.0 * (s.real[:, None] * jac.real + s.imag[:, None] * jac.imag)
        return h, dh.ravel()

    def inequalities(self, x: np.ndarray) -> tuple[np.ndarray, sparse.csr_matrix]:
        h, dh = self._flow_limits(x)
        return h, self.ineq_pattern.fill(dh)

    def lagrangian_hessian(
        self, x: np.ndarray, lam: np.ndarray, mu: np.ndarray
    ) -> sparse.csr_matrix:
        nb = self.nb
        v = self.voltage(x)
        vm = x[self.sl_vm]
        npat = self.pr.size

        # Every second-order voltage term is Re of the MATPOWER map below
        # applied to ``c`` on P.  Power balance: c_ij = w_i V_i conj(Y_ij V_j)
        # with w = lam_p - j lam_q, so Re(w S) = lam_p P + lam_q Q.
        c = (lam[:nb] - 1j * lam[nb : 2 * nb])[self.pr] * self._pattern_terms(v)

        # Branch limits, mu . |S|^2: the d2Sbr part adds 2 conj(S) mu times
        # each row's power terms to c; the Gauss-Newton part
        # 2 mu Re(dS_a conj(dS_b)) adds directly to the voltage values.
        # Rows past the flow limits (a subclass's linear rows) carry no
        # curvature, so only the first ``n_rows`` multipliers are read.
        n_rows = self.br_s.size
        gn = None
        if n_rows and mu.size:
            mu = mu[:n_rows]
            a_ss, a_so, s, jac = self._branch_terms(v, vm)
            nu = 2.0 * np.conj(s) * mu
            c = c + _scatter(self.br_pos, np.concatenate([nu * a_ss, nu * a_so]), npat)
            outer = (
                jac.real[:, :, None] * jac.real[:, None, :]
                + jac.imag[:, :, None] * jac.imag[:, None, :]
            )
            gn = (2.0 * mu[:, None, None] * outer).ravel()

        # Gaa = C + C^T - diag(rowsum C + colsum C)
        # Gva = j diag(1/Vm) (C^T - C + diag(rowsum C - colsum C))
        # Gvv = diag(1/Vm) (C + C^T) diag(1/Vm),    Gav = Gva^T
        ct = c[self.ptrans]
        rows = _scatter(self.pr, c, nb)
        cols = _scatter(self.pc, c, nb)
        sym = (c + ct).real
        haa = sym.copy()
        haa[self.pdiag] -= (rows + cols).real
        skew = ct - c
        skew[self.pdiag] += rows - cols
        hva = -skew.imag / vm[self.pr]
        hvv = sym / (vm[self.pr] * vm[self.pc])
        vv = np.concatenate([haa, hva[self.ptrans], hva, hvv])
        if gn is not None:
            vv += np.bincount(self.br_hess.ravel(), gn, vv.size)

        d2f_pg = self.costs.hessian_diag(x[self.sl_pg])
        return self.hess_pattern.fill(np.concatenate([vv, d2f_pg]))


@instrument_solver("acopf")
def solve_acopf(
    net: Network,
    *,
    options: IPMOptions | None = None,
    multi_start: bool = True,
) -> OPFResult:
    """Solve the ACOPF with the interior-point backend.

    ``multi_start`` retries stalled solves from a power-flow warm start
    and a flat start before giving up.  Non-convergence is reported in the
    result (``converged=False``), never raised — the agent validation
    layer decides how to recover.
    """
    start = time.perf_counter()
    prob = ACOPFProblem(net)
    xmin, xmax = prob.bounds()
    opts = options or IPMOptions()

    # Multi-start: the PDIPM occasionally stalls (step collapse) from a
    # particular basin on stressed systems; different but equally
    # legitimate starting points usually rescue it.
    starts: list = [prob.initial_point]
    if multi_start:
        starts += [prob.warm_start_point, prob.flat_point]

    ipm_res = None
    for make_x0 in starts:
        x0 = make_x0()
        if x0 is None:
            continue
        attempt = solve_ipm(
            x0,
            prob.objective,
            prob.equalities,
            prob.inequalities,
            prob.lagrangian_hessian,
            xmin,
            xmax,
            opts,
        )
        if ipm_res is None or (attempt.converged and not ipm_res.converged):
            ipm_res = attempt
        if attempt.converged:
            break
    assert ipm_res is not None
    return _unpack(prob, ipm_res, time.perf_counter() - start)


def _unpack(prob: ACOPFProblem, res: IPMResult, runtime: float) -> OPFResult:
    arr = prob.arr
    base = arr.base_mva
    x = res.x
    v = prob.voltage(x)

    sf = v[arr.f_bus] * np.conj(prob.adm.yf @ v)
    st = v[arr.t_bus] * np.conj(prob.adm.yt @ v)
    s_from = np.abs(sf) * base
    s_to = np.abs(st) * base
    with np.errstate(divide="ignore", invalid="ignore"):
        loading = np.where(
            arr.rate_a > 0,
            100.0 * np.maximum(s_from, s_to) / (arr.rate_a * base),
            0.0,
        )

    mis = prob.power_balance(x)
    max_mis = float(np.max(np.abs(mis))) if prob.nb else 0.0

    # Nodal prices: $/h per p.u. -> $/MWh.
    lmp = res.lam_eq[: prob.nb] / base

    branch_mu = np.zeros(prob.nl)
    nr = len(prob.rated)
    if nr and res.mu_ineq.size >= 2 * nr:
        # Shadow price on |S|^2 limit; convert to per-MVA via chain rule.
        # (Subclasses may append extra inequality rows after these.)
        mu_f = res.mu_ineq[:nr]
        mu_t = res.mu_ineq[nr: 2 * nr]
        combined = np.zeros(prob.nl)
        rate_pu = arr.rate_a[prob.rated]
        combined[prob.rated] = (mu_f + mu_t) * 2.0 * rate_pu / base
        branch_mu = combined

    losses = float((sf + st).real.sum()) * base

    return OPFResult(
        converged=res.converged,
        objective_cost=float(res.f),
        method="acopf-ipm",
        iterations=res.iterations,
        vm=np.abs(v),
        va_deg=rad_to_deg(np.angle(v)),
        pg_mw=x[prob.sl_pg] * base,
        qg_mvar=x[prob.sl_qg] * base,
        gen_ids=arr.gen_ids.copy(),
        loading_percent=loading,
        s_from_mva=s_from,
        s_to_mva=s_to,
        branch_ids=arr.branch_ids.copy(),
        losses_mw=losses,
        lmp_mw=lmp,
        branch_mu=branch_mu,
        max_power_balance_mismatch_pu=max_mis,
        runtime_s=runtime,
        message=res.message,
        extras={"ipm_history": res.history},
    )
