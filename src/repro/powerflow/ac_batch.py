"""Batched AC physics kernel: warm-started ensembles on one topology.

PR 9 batched the *linear* hot path; this module is the nonlinear half.
An injection-only AC ensemble (the default ``analysis="powerflow"``
study) used to pay, per scenario: a network realize + compile, a fresh
Ybus build, and a flat-ish Newton solve from ``vm0``.  Every one of
those costs is topology-level, not scenario-level — ten thousand Monte
Carlo draws over one grid share a single admittance matrix, a single
base-case solution to warm-start from, and a single pair of
fast-decoupled B'/B'' factorizations.

:class:`AcKernel` owns exactly that shared state for one electrical
topology (keyed by the same :func:`~repro.powerflow.batch.topology_digest`
the DC kernel cache uses) and solves a stacked injection chunk in three
tiers, each cheaper than the last:

1. **Vectorized mismatch screen** — the warm-start voltage's injection
   ``V ∘ conj(Ybus V)`` is computed once (one sparse matvec for the whole
   chunk, since every row shares the start) and compared against the
   stacked scheduled injections; rows already inside ``tol`` skip
   iteration entirely.
2. **Fast-decoupled corrector sweeps** — a few half-iterations through
   the cached B'/B'' SuperLU factorizations, run as multi-RHS triangular
   solves across all still-active rows at once, walk each iterate most
   of the way in.
3. **Warm-started Newton polish** — the full-Jacobian solver finishes
   each remaining row to the exact scalar-path tolerance; rows it cannot
   converge fall back to the caller's scalar recovery ladder.

The contract is *parity*, not bit-identity (Newton iterates are
path-dependent): identical ``converged`` flags, identical overloaded-
branch and voltage-violation sets, every mismatch under the same ``tol``,
and aggregate fields within 1e-6 of the cold path — asserted by the test
suite across cases, chunk sizes, and dispatch modes.

The same kernel serves branch *outages* at the base injections
(:meth:`AcKernel.solve_outages`): an outage is a low-rank change of
B'/B'', so each row runs fast-decoupled sweeps through the base
factorizations corrected by a Sherman-Morrison-Woodbury update, against
the exact post-outage mismatch, with no refactorization and no Newton
polish.  Rows that island or stall are handed back to the caller's
scalar path under a named reason.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import linalg as sla

from ..grid.components import BusType
from ..grid.network import Network
from ..grid.units import deg_to_rad
from .fast_decoupled import _series_susceptance_matrices
from .newton import _newton_inner, bus_power_injections, solve_newton
from .solution import (
    FlowSummary,
    PowerFlowResult,
    finalize_solution,
    loading_percent,
    make_admittances,
)

#: Handoff reasons of an outage row the compensated kernel cannot serve.
ISLANDED = "islanded"
FD_STALLED = "fd-stalled"

#: Determinant magnitude of a Woodbury capacitance matrix (entries of
#: order one) below which the outage set is taken to split the grid: the
#: updated B'/B'' is singular.  A genuine split reads ~1e-13; the weakest
#: surviving corridor on the shipped cases reads far above this.
SINGULAR_CAPACITANCE = 1e-9

#: Compensated fast-decoupled sweeps an outage row may take before it is
#: declared stalled, and the mismatch (p.u.) past which it has diverged.
OUTAGE_MAX_SWEEPS = 40
FD_DIVERGED = 1e6

#: Contraction every outage row must keep up: its mismatch must fall by
#: ``STALL_RATIO`` over each window of ``STALL_WINDOW`` sweeps, or the row
#: is handed back as stalled however many sweeps remain.  Warm FD near the
#: solution Newton finds contracts far faster (worst row over N-1 and 500
#: N-2 pairs per shipped case: 0.19 per window); a row that stagnates is
#: wandering, and may drift to a different power-flow solution (ieee57
#: branch 38: ~1.0 per window, then converges after 110 sweeps at 556%
#: loading where Newton finds 164%).
STALL_WINDOW = 4
STALL_RATIO = 0.5


class AcChunkSolution:
    """Stacked warm-path AC solution: row ``i`` is scenario ``i``."""

    __slots__ = ("v", "converged", "iterations", "norms", "skipped")

    def __init__(
        self,
        v: np.ndarray,
        converged: np.ndarray,
        iterations: np.ndarray,
        norms: np.ndarray,
        skipped: np.ndarray,
    ) -> None:
        self.v = v  # (n, n_bus) complex final voltages
        self.converged = converged  # (n,) bool
        self.iterations = iterations  # (n,) Newton iterations per row
        self.norms = norms  # (n,) final max mismatch, p.u.
        self.skipped = skipped  # (n,) rows converged at the warm start

    @property
    def n_scenarios(self) -> int:
        return self.v.shape[0]


@dataclass
class OutageRow(FlowSummary):
    """Post-outage state of one converged compensated-kernel row.

    ``loading_percent`` spans every branch of the base topology
    (``branch_ids``); the outaged branches read ``-inf``, so they never
    count as loaded.  Arrays are views into the solved block.
    """

    v: np.ndarray  # (n_bus,) complex
    vm: np.ndarray
    loading_percent: np.ndarray
    branch_ids: np.ndarray
    losses_mw: float
    iterations: int  # fast-decoupled sweeps
    method: str = "fdpf-xb"

    @property
    def message(self) -> str:
        return (
            f"converged in {self.iterations} compensated fast-decoupled "
            "sweeps (warm start)"
        )


class AcOutageSolution:
    """Stacked outage solve: row ``i`` is outage set ``i``.

    ``rows[i]`` is the converged :class:`OutageRow`, or ``None`` with
    ``reasons[i]`` naming why the caller must run its scalar path.
    """

    __slots__ = ("rows", "reasons")

    def __init__(
        self, rows: list[OutageRow | None], reasons: list[str | None]
    ) -> None:
        self.rows = rows
        self.reasons = reasons


class AcKernel:
    """Compiled warm-start AC model for one electrical topology.

    Construction compiles the network once and reuses the memoised
    admittances; the base-case Newton solve and the fast-decoupled
    B'/B'' factorizations are built lazily on first use.  Injections are
    supplied per chunk, so one kernel serves every load level of its
    topology — the same lifecycle as :class:`~repro.powerflow.batch.DcKernel`.

    Holds SuperLU objects, so instances are worker-local and never
    pickled (the worker cache rebuilds them per process).  ``base``
    seeds the base-case solve with a result the caller already holds
    (the N-1 sweep's), so no extra Newton run happens.
    """

    def __init__(
        self,
        net: Network,
        *,
        tol: float = 1e-8,
        max_iter: int = 20,
        base: PowerFlowResult | None = None,
    ) -> None:
        self.net = net
        self.tol = tol
        self.max_iter = max_iter
        self.arr, self.adm = make_admittances(net)
        arr = self.arr
        self.pv = np.flatnonzero(arr.bus_type == int(BusType.PV))
        self.pq = np.flatnonzero(arr.bus_type == int(BusType.PQ))
        self.pvpq = np.concatenate([self.pv, self.pq])
        self._base: PowerFlowResult | None = None
        self._base_v: np.ndarray | None = None
        self._fd_lus = None
        self._comp: _Compensation | None = None
        if base is not None:
            self._base = base
            if base.converged:
                v = base.extras.get("v_complex")
                self._base_v = (
                    np.asarray(v, dtype=complex)
                    if v is not None
                    else base.vm * np.exp(1j * deg_to_rad(base.va_deg))
                )
        #: Fast-path accounting: rows iterated warm / skipped at start.
        self.n_warm_solves = 0
        self.n_skipped = 0
        self.n_chunks = 0

    # ------------------------------------------------------------------
    # shared one-off state
    # ------------------------------------------------------------------
    def base_result(self) -> PowerFlowResult:
        """The base-case solve every chunk warm-starts from (lazy)."""
        if self._base is None:
            self._base = solve_newton(
                self.net, tol=self.tol, max_iter=self.max_iter
            )
            if self._base.converged:
                self._base_v = np.asarray(
                    self._base.extras["v_complex"], dtype=complex
                )
        return self._base

    @property
    def usable(self) -> bool:
        """Whether the warm path can run (base case converged)."""
        return self.base_result().converged

    def _fd_factors(self):
        """Cached SuperLU factorizations of the reduced B' / B''."""
        if self._fd_lus is None:
            bp, bpp = _series_susceptance_matrices(self.arr, "xb")
            lu_p = sla.splu(bp[np.ix_(self.pvpq, self.pvpq)].tocsc())
            lu_q = (
                sla.splu(bpp[np.ix_(self.pq, self.pq)].tocsc())
                if self.pq.size
                else None
            )
            self._fd_lus = (lu_p, lu_q)
        return self._fd_lus

    # ------------------------------------------------------------------
    # the chunk solve
    # ------------------------------------------------------------------
    def _row_norms(self, mis: np.ndarray) -> np.ndarray:
        """Per-row max mismatch over the P(pv+pq) / Q(pq) equations."""
        parts = np.concatenate(
            [mis[:, self.pvpq].real, mis[:, self.pq].imag], axis=1
        )
        if parts.shape[1] == 0:
            return np.zeros(mis.shape[0])
        return np.max(np.abs(parts), axis=1)

    def _fd_correct(
        self, vm: np.ndarray, va: np.ndarray, sbus: np.ndarray, sweeps: int
    ) -> None:
        """Vectorized fast-decoupled half-iterations across chunk rows.

        Each sweep runs one P half and one Q half for every still-active
        row through a single multi-RHS triangular solve against the
        cached B'/B'' factorizations; rows falling under ``tol`` drop
        out between halves.  Mutates ``vm``/``va`` in place.
        """
        lu_p, lu_q = self._fd_factors()
        pvpq, pq = self.pvpq, self.pq
        ybus = self.adm.ybus
        active = np.arange(vm.shape[0])
        for _ in range(sweeps):
            v = vm[active] * np.exp(1j * va[active])
            mis = v * np.conj((ybus @ v.T).T) - sbus[active]
            still = self._row_norms(mis) >= self.tol
            active = active[still]
            if not active.size:
                return
            v, mis = v[still], mis[still]
            p = mis[:, pvpq].real / np.abs(v[:, pvpq])
            va[np.ix_(active, pvpq)] -= lu_p.solve(
                np.ascontiguousarray(p.T)
            ).T
            if lu_q is None:
                continue
            v = vm[active] * np.exp(1j * va[active])
            mis = v * np.conj((ybus @ v.T).T) - sbus[active]
            still = self._row_norms(mis) >= self.tol
            active = active[still]
            if not active.size:
                return
            v, mis = v[still], mis[still]
            q = mis[:, pq].imag / np.abs(v[:, pq])
            vm[np.ix_(active, pq)] -= lu_q.solve(np.ascontiguousarray(q.T)).T

    def solve_chunk(
        self, sbus: np.ndarray, *, fd_sweeps: int = 2
    ) -> AcChunkSolution:
        """Solve a stacked ``(n, n_bus)`` complex-injection chunk warm.

        Every row starts from the cached base-case voltage; see the
        module docstring for the three solve tiers.  Rows whose Newton
        polish does not converge come back ``converged=False`` — the
        caller degrades those to its scalar recovery ladder.
        """
        v0 = self._warm_start()
        sbus = np.atleast_2d(np.asarray(sbus, dtype=complex))
        n = sbus.shape[0]
        ybus = self.adm.ybus

        v_out = np.tile(v0, (n, 1))
        iterations = np.zeros(n, dtype=int)
        converged = np.zeros(n, dtype=bool)

        # Tier 1: one matvec screens the whole chunk — every row shares
        # the warm-start voltage, so its realised injection is computed
        # once and compared against all scheduled injections at once.
        base_s = v0 * np.conj(ybus @ v0)
        norms = self._row_norms(base_s[np.newaxis, :] - sbus)
        skipped = norms < self.tol
        converged[skipped] = True

        active = np.flatnonzero(~skipped)
        if active.size:
            vm = np.abs(v_out[active])
            va = np.angle(v_out[active])
            # Tier 2: cheap corrector sweeps through the cached LUs.
            if fd_sweeps > 0:
                self._fd_correct(vm, va, sbus[active], fd_sweeps)
            v_warm = vm * np.exp(1j * va)
            # Tier 3: per-row Newton polish to the scalar-path tolerance.
            for j, i in enumerate(active):
                v_i, conv, iters, norm = _newton_inner(
                    ybus,
                    sbus[i],
                    v_warm[j],
                    self.arr.bus_type,
                    self.tol,
                    self.max_iter,
                )
                v_out[i] = v_i
                converged[i] = conv
                iterations[i] = iters
                norms[i] = norm

        self.n_chunks += 1
        self.n_warm_solves += int(active.size)
        self.n_skipped += int(skipped.sum())
        return AcChunkSolution(v_out, converged, iterations, norms, skipped)

    # ------------------------------------------------------------------
    # branch-outage rows: compensated warm fast-decoupled sweeps
    # ------------------------------------------------------------------
    def _compensation(self) -> _Compensation:
        """Per-branch Woodbury columns of the cached B'/B'' factors (lazy).

        One multi-RHS solve per kernel gives ``B'^-1 a_k`` for every
        branch's reduced incidence column ``a_k``, and one more the full
        ``B''^-1`` (its columns are ``B''^-1 e_f`` / ``B''^-1 e_t`` for
        every branch end): O(n_bus^2) floats, no refactorization.
        """
        if self._comp is None:
            self._comp = _Compensation(self)
        return self._comp

    def _outage_rows(self, outages: Sequence[Iterable[int]]) -> np.ndarray:
        """Branch rows of each outage set, padded with the dummy row."""
        comp = self._compensation()
        sets = [sorted({int(b) for b in ids}) for ids in outages]
        width = max([1, *map(len, sets)])
        rows = np.full((len(sets), width), comp.n_branch)
        for i, ids in enumerate(sets):
            for j, bid in enumerate(ids):
                row = comp.row_of.get(bid)
                if row is None:
                    raise ValueError(
                        f"branch {bid} is not in service in this topology"
                    )
                rows[i, j] = row
        return rows

    def _outage_mismatch(
        self, vm: np.ndarray, va: np.ndarray, rows: np.ndarray, sbus: np.ndarray
    ) -> np.ndarray:
        """Exact post-outage mismatch without a Ybus rebuild.

        The base ``Ybus V`` minus each outaged branch's pi-model currents
        at its two end buses (the branch's ``Yf``/``Yt`` rows) is the
        post-outage bus current, term for term.
        """
        comp = self._compensation()
        v = vm * np.exp(1j * va)
        cur = (self.adm.ybus @ v.T).T
        r = np.arange(v.shape[0])
        for k in rows.T:
            f, t = comp.f_bus[k], comp.t_bus[k]
            vf, vt = v[r, f], v[r, t]
            cur[r, f] -= comp.yff[k] * vf + comp.yft[k] * vt
            cur[r, t] -= comp.ytf[k] * vf + comp.ytt[k] * vt
        return v * np.conj(cur) - sbus

    def solve_outages(self, outages: Sequence[Iterable[int]]) -> AcOutageSolution:
        """Solve stacked branch-outage rows warm from the base voltage.

        Each row is a set of branch ids (one or two in practice) of this
        kernel's topology, at the base injections.  Rows run fast-decoupled
        sweeps through the cached B'/B'' LUs, corrected per row by
        Sherman-Morrison-Woodbury: rank 1 per branch in B' and rank <= 2
        per branch in B'' (series plus line charging).  Rows never mix, so
        a row's iterates do not depend on what else is stacked with it.

        A row whose capacitance matrix is singular (the outage splits the
        grid) comes back ``None`` with reason ``"islanded"``; one that
        goes non-finite, diverges, stops contracting (mismatch not halved
        over ``STALL_WINDOW`` sweeps) or is not inside ``tol`` after
        ``OUTAGE_MAX_SWEEPS`` comes back with ``"fd-stalled"``.  There is
        no Newton polish: the caller runs its scalar path for those rows.
        """
        v0 = self._warm_start()
        comp = self._compensation()
        rows = self._outage_rows(outages)
        n, width = rows.shape
        sbus = bus_power_injections(self.arr)
        # Per-row update operators: w = M K^-1 (U^T x), y = x + (A^-1 U) w,
        # built per outage count so a row's arithmetic never depends on
        # how wide the other rows of its chunk are (padding adds zeros).
        islanded = np.zeros(n, dtype=bool)
        wp = np.zeros((n, width, width))
        wq = np.zeros((n, 2 * width, 2 * width))
        counts = (rows < comp.n_branch).sum(axis=1)
        for size in np.unique(counts[counts > 0]):
            sel = np.flatnonzero(counts == size)
            kp, kq, mq = comp.capacitances(rows[sel, :size])
            bad = (np.abs(np.linalg.det(kp)) < SINGULAR_CAPACITANCE) | (
                np.abs(np.linalg.det(kq)) < SINGULAR_CAPACITANCE
            )
            islanded[sel] = bad
            kp[bad], kq[bad] = np.eye(size), np.eye(2 * size)
            wp[sel, :size, :size] = (
                comp.bp[rows[sel, :size]][:, :, np.newaxis] * np.linalg.inv(kp)
            )
            wq[sel, : 2 * size, : 2 * size] = mq @ np.linalg.inv(kq)
        ends_p = (comp.fp[rows], comp.tp[rows])
        ends_q = np.stack([comp.fq[rows], comp.tq[rows]], axis=-1).reshape(n, -1)

        lu_p, lu_q = self._fd_factors()
        pvpq, pq = self.pvpq, self.pq
        vm = np.tile(np.abs(v0), (n, 1))
        va = np.tile(np.angle(v0), (n, 1))
        converged = np.zeros(n, dtype=bool)
        sweeps = np.zeros(n, dtype=int)
        active = np.flatnonzero(~islanded)

        # Each row's mismatch at the start of every sweep it took.
        history = np.empty((n, OUTAGE_MAX_SWEEPS))

        def screen(
            active: np.ndarray,
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Mismatch and norm of the active rows; drop converged and
            diverged."""
            mis = self._outage_mismatch(vm[active], va[active], rows[active], sbus)
            norm = self._row_norms(mis)
            converged[active[norm < self.tol]] = True
            live = (norm >= self.tol) & (norm <= FD_DIVERGED)
            return active[live], mis[live], norm[live]

        for sweep in range(OUTAGE_MAX_SWEEPS):
            active, mis, norm = screen(active)
            history[active, sweep] = norm
            if sweep >= STALL_WINDOW:
                # Rows only ever leave ``active``, so every row still in it
                # has a norm recorded STALL_WINDOW sweeps back.
                moving = norm <= STALL_RATIO * history[active, sweep - STALL_WINDOW]
                active, mis = active[moving], mis[moving]
            if not active.size:
                break
            sweeps[active] += 1
            p = mis[:, pvpq].real / vm[np.ix_(active, pvpq)]
            x = lu_p.solve(np.ascontiguousarray(p.T)).T
            u = _pad(x)
            r = np.arange(active.size)[:, np.newaxis]
            ux = u[r, ends_p[0][active]] - u[r, ends_p[1][active]]
            w = np.einsum("kab,kb->ka", wp[active], ux)
            x += np.einsum("kap,ka->kp", comp.zp[rows[active]], w)
            va[np.ix_(active, pvpq)] -= x
            if lu_q is None:
                continue
            active, mis, _ = screen(active)
            if not active.size:
                break
            q = mis[:, pq].imag / vm[np.ix_(active, pq)]
            x = lu_q.solve(np.ascontiguousarray(q.T)).T
            r = np.arange(active.size)[:, np.newaxis]
            w = np.einsum("kab,kb->ka", wq[active], _pad(x)[r, ends_q[active]])
            x += np.einsum("kap,ka->kp", comp.zq[ends_q[active]], w)
            vm[np.ix_(active, pq)] -= x
        else:
            screen(active)

        reasons: list[str | None] = [
            None if ok else (ISLANDED if isl else FD_STALLED)
            for ok, isl in zip(converged, islanded)
        ]
        out: list[OutageRow | None] = [None] * n
        done = np.flatnonzero(converged)
        if done.size:
            v = vm[done] * np.exp(1j * va[done])
            loading, losses = self._branch_flows(v)
            outaged = np.zeros((done.size, comp.n_branch + 1), dtype=bool)
            outaged[np.arange(done.size)[:, np.newaxis], rows[done]] = True
            outaged = outaged[:, :-1]
            loading[outaged] = -np.inf
            losses_mw = np.where(outaged, 0.0, losses).sum(axis=1)
            v_mag = np.abs(v)
            for j, i in enumerate(done):
                out[i] = OutageRow(
                    v=v[j],
                    vm=v_mag[j],
                    loading_percent=loading[j],
                    branch_ids=self.arr.branch_ids,
                    losses_mw=float(losses_mw[j]),
                    iterations=int(sweeps[i]),
                )
        return AcOutageSolution(out, reasons)

    def _warm_start(self) -> np.ndarray:
        """The cached base voltage every row starts from."""
        if not self.base_result().converged:
            raise RuntimeError(
                "AC kernel base case did not converge; warm path unusable"
            )
        assert self._base_v is not None
        return self._base_v

    def _branch_flows(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked loading % and real losses (MW) per branch, as
        :func:`~repro.powerflow.solution.finalize_solution` computes them."""
        arr, adm = self.arr, self.adm
        base = arr.base_mva
        sf = v[:, arr.f_bus] * np.conj((adm.yf @ v.T).T)
        st = v[:, arr.t_bus] * np.conj((adm.yt @ v.T).T)
        loading = loading_percent(arr, np.abs(sf) * base, np.abs(st) * base)
        return loading, (sf + st).real * base

    # ------------------------------------------------------------------
    # per-row finalization
    # ------------------------------------------------------------------
    def finalize_row(
        self,
        v: np.ndarray,
        pd: np.ndarray,
        qd: np.ndarray,
        *,
        converged: bool,
        iterations: int,
        norm: float,
    ) -> PowerFlowResult:
        """Assemble the full :class:`PowerFlowResult` for one chunk row.

        ``pd``/``qd`` are the scenario's per-bus load vectors (p.u.):
        generation allocation reads them off the snapshot, so the cached
        topology arrays are rebound to this row's loads — no recompile.
        """
        arr = replace(self.arr, pd=pd, qd=qd)
        return finalize_solution(
            self.net,
            arr,
            self.adm,
            v,
            converged=converged,
            iterations=iterations,
            method="newton",
            max_mismatch_pu=float(norm),
            message=f"converged in {iterations} iterations (warm start)",
        )


def _pad(x: np.ndarray) -> np.ndarray:
    """Append the zero column the dummy (absent) index reads."""
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)


class _Compensation:
    """Topology-level data of the kernel's outage updates.

    Index arrays carry one trailing dummy entry (branch ``n_branch``,
    reduced position ``n_p``/``n_q``) with zero admittance, so rows of
    different outage counts stack to one width and buses outside the
    reduced P/Q sets read zeros.
    """

    def __init__(self, kernel: AcKernel) -> None:
        arr, adm = kernel.arr, kernel.adm
        lu_p, lu_q = kernel._fd_factors()
        nb, nl = arr.n_bus, arr.n_branch
        n_p, n_q = kernel.pvpq.size, kernel.pq.size
        self.n_branch = nl
        self.row_of = {int(b): i for i, b in enumerate(arr.branch_ids)}
        self.f_bus = np.append(arr.f_bus, 0)
        self.t_bus = np.append(arr.t_bus, 0)

        pos_p = np.full(nb, n_p)
        pos_p[kernel.pvpq] = np.arange(n_p)
        pos_q = np.full(nb, n_q)
        pos_q[kernel.pq] = np.arange(n_q)
        self.fp, self.tp = pos_p[self.f_bus], pos_p[self.t_bus]
        self.fq, self.tq = pos_q[self.f_bus], pos_q[self.t_bus]
        self.fp[nl] = self.tp[nl] = n_p
        self.fq[nl] = self.tq[nl] = n_q

        # B' (XB): series 1/x per branch -> rank-1 a_k a_k^T / x_k.
        self.bp = np.append(1.0 / arr.x, 0.0)
        inc = np.zeros((n_p + 1, nl))
        cols = np.arange(nl)
        inc[self.fp[:nl], cols] += 1.0
        inc[self.tp[:nl], cols] -= 1.0
        #: (n_branch + 1, n_p): row k is B'^-1 a_k.
        self.zp = np.zeros((nl + 1, n_p))
        if n_p:
            self.zp[:nl] = lu_p.solve(np.ascontiguousarray(inc[:n_p])).T
        #: (n_q + 1, n_q): row j is B''^-1 e_j (B'' is symmetric).
        self.zq = np.zeros((n_q + 1, n_q))
        if lu_q is not None:
            self.zq[:n_q] = lu_q.solve(np.eye(n_q)).T

        # B'' (XB): series -Im(1/z) plus half the charging at each end,
        # as the 2x2 block over [e_f, e_t].
        bs = -(1.0 / (arr.r + 1j * arr.x)).imag
        half = arr.b_charge / 2.0
        self.mq = np.zeros((nl + 1, 2, 2))
        self.mq[:nl, 0, 0] = self.mq[:nl, 1, 1] = bs + half
        self.mq[:nl, 0, 1] = self.mq[:nl, 1, 0] = -bs

        # Each branch's pi-model rows of Yf / Yt at its two end buses.
        def entries(y, buses):
            return np.append(np.asarray(y[cols, buses]).ravel(), 0.0)

        self.yff, self.yft = entries(adm.yf, arr.f_bus), entries(adm.yf, arr.t_bus)
        self.ytf, self.ytt = entries(adm.yt, arr.f_bus), entries(adm.yt, arr.t_bus)

    def capacitances(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked Woodbury capacitances ``I - G M`` for B' and B''.

        Returns ``(K', K'', M'')``: ``K'`` is ``(n, m, m)`` over the
        rows' branches, ``K''`` and the block-diagonal ``M''`` are
        ``(n, 2m, 2m)`` over their end buses ``[f1, t1, f2, t2, ...]``.
        """
        n, width = rows.shape
        ra, rb = rows[:, :, np.newaxis], rows[:, np.newaxis, :]
        zp = _pad(self.zp)
        g_p = zp[rb, self.fp[ra]] - zp[rb, self.tp[ra]]
        k_p = np.eye(width) - g_p * self.bp[rb]

        ends = np.stack([self.fq[rows], self.tq[rows]], axis=-1).reshape(n, -1)
        g_q = _pad(self.zq)[ends[:, :, np.newaxis], ends[:, np.newaxis, :]]
        m_q = np.zeros((n, 2 * width, 2 * width))
        for a in range(width):
            m_q[:, 2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = self.mq[rows[:, a]]
        k_q = np.eye(2 * width) - g_q @ m_q
        return k_p, k_q, m_q
