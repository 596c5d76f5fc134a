"""Finite-difference verification of all analytic derivatives.

The ACOPF stack is only as correct as these formulas; each block is
checked against central differences on the genuine IEEE 14 state and on a
perturbed (non-flat) voltage vector.  ``dSbus_dV`` is the Newton power
flow's sparse-product form; the branch-flow and second-order blocks are
the element-wise fills of :class:`ACOPFProblem`, checked block by block
against the MATPOWER formulas they implement (``dSbr_dV``, ``d2Sbus_dV2``,
``d2Sbr_dV2``, ``d2Abr_dV2``).
"""

import numpy as np
import pytest

from repro.grid.ybus import build_admittances
from repro.opf.acopf import ACOPFProblem
from repro.powerflow.jacobian import dSbus_dV

RNG = np.random.default_rng(42)
EPS = 1e-6


@pytest.fixture
def state(case14):
    arr = case14.compile()
    adm = build_admittances(arr)
    vm = arr.vm0 + RNG.uniform(-0.03, 0.03, arr.n_bus)
    va = arr.va0 + RNG.uniform(-0.1, 0.1, arr.n_bus)
    return arr, adm, vm, va


def _v(vm, va):
    return vm * np.exp(1j * va)


def test_dsbus_dva_matches_fd(state):
    arr, adm, vm, va = state
    ds_dva, _ = dSbus_dV(adm.ybus, _v(vm, va))
    n = arr.n_bus
    fd = np.zeros((n, n), dtype=complex)
    for j in range(n):
        va_p, va_m = va.copy(), va.copy()
        va_p[j] += EPS
        va_m[j] -= EPS

        def s(vaa):
            v = _v(vm, vaa)
            return v * np.conj(adm.ybus @ v)

        fd[:, j] = (s(va_p) - s(va_m)) / (2 * EPS)
    assert np.allclose(ds_dva.toarray(), fd, atol=1e-6)


def test_dsbus_dvm_matches_fd(state):
    arr, adm, vm, va = state
    _, ds_dvm = dSbus_dV(adm.ybus, _v(vm, va))
    n = arr.n_bus
    fd = np.zeros((n, n), dtype=complex)
    for j in range(n):
        vm_p, vm_m = vm.copy(), vm.copy()
        vm_p[j] += EPS
        vm_m[j] -= EPS

        def s(vmm):
            v = _v(vmm, va)
            return v * np.conj(adm.ybus @ v)

        fd[:, j] = (s(vm_p) - s(vm_m)) / (2 * EPS)
    assert np.allclose(ds_dvm.toarray(), fd, atol=1e-6)


def _point(prob, vm, va):
    x = prob.initial_point()
    x[prob.sl_va] = va
    x[prob.sl_vm] = vm
    return x


def test_dsbr_dv_matches_fd(case14, state):
    """Each rated end's flow and its four local derivatives (dSbr_dV)."""
    arr, adm, vm, va = state
    prob = ACOPFProblem(case14)
    v0 = _v(vm, va)
    _, _, s, jac = prob._branch_terms(v0, vm)
    nr = len(prob.rated)
    # value check: from-ends, then to-ends
    sf = v0[arr.f_bus] * np.conj(adm.yf @ v0)
    st = v0[arr.t_bus] * np.conj(adm.yt @ v0)
    assert np.allclose(s, np.concatenate([sf[prob.rated], st[prob.rated]]))
    assert len(prob.rated) == arr.n_branch  # every branch of ieee14 is rated

    fd = np.zeros((2 * nr, 4), dtype=complex)
    local = [(False, prob.br_s), (False, prob.br_o), (True, prob.br_s), (True, prob.br_o)]
    for r in range(2 * nr):
        for col, (is_vm, bus) in enumerate(local):

            def flow(step):
                vm_p, va_p = vm.copy(), va.copy()
                (vm_p if is_vm else va_p)[bus[r]] += step
                return prob._branch_terms(_v(vm_p, va_p), vm_p)[2][r]

            fd[r, col] = (flow(EPS) - flow(-EPS)) / (2 * EPS)
    assert np.allclose(jac, fd, atol=1e-6)


def _fd_hessian_blocks(fun_grad, vm, va, lam, nb):
    """Central differences of lam' * gradient blocks."""
    gaa = np.zeros((nb, nb))
    gav = np.zeros((nb, nb))
    gva = np.zeros((nb, nb))
    gvv = np.zeros((nb, nb))
    for j in range(nb):
        va_p, va_m = va.copy(), va.copy()
        va_p[j] += EPS
        va_m[j] -= EPS
        ga_p, gm_p = fun_grad(vm, va_p)
        ga_m, gm_m = fun_grad(vm, va_m)
        gaa[:, j] = (ga_p - ga_m) / (2 * EPS)
        gva[:, j] = (gm_p - gm_m) / (2 * EPS)

        vm_p, vm_m = vm.copy(), vm.copy()
        vm_p[j] += EPS
        vm_m[j] -= EPS
        ga_p, gm_p = fun_grad(vm_p, va)
        ga_m, gm_m = fun_grad(vm_m, va)
        gav[:, j] = (ga_p - ga_m) / (2 * EPS)
        gvv[:, j] = (gm_p - gm_m) / (2 * EPS)
    return gaa, gav, gva, gvv


def _assembled_blocks(prob, x, lam, mu):
    """The VV blocks (aa, av, va, vv) of the assembled Lagrangian Hessian."""
    h = prob.lagrangian_hessian(x, lam, mu).toarray()
    nb = prob.nb
    return h[:nb, :nb], h[:nb, nb : 2 * nb], h[nb : 2 * nb, :nb], h[nb : 2 * nb, nb : 2 * nb]


def test_d2sbus_dv2_matches_fd(case14, state):
    """Power-balance curvature: lam_p . P + lam_q . Q (d2Sbus_dV2)."""
    arr, adm, vm, va = state
    nb = arr.n_bus
    prob = ACOPFProblem(case14)
    lam_p, lam_q = RNG.uniform(-1, 1, nb), RNG.uniform(-1, 1, nb)
    lam = np.concatenate([lam_p, lam_q, [0.0]])
    mu = np.zeros(2 * len(prob.rated))

    def lam_grad(vmm, vaa):
        dva, dvm = dSbus_dV(adm.ybus, _v(vmm, vaa))
        w = lam_p - 1j * lam_q
        # gradient of Re(w' S) = lam_p' P + lam_q' Q: real-valued
        return np.real(dva.T @ w), np.real(dvm.T @ w)

    blocks = _assembled_blocks(prob, _point(prob, vm, va), lam, mu)
    for got, want in zip(blocks, _fd_hessian_blocks(lam_grad, vm, va, lam, nb)):
        assert np.allclose(got, want, atol=1e-5)


def test_d2abr_dv2_matches_fd(case14, state):
    """Hessian of mu' |S|^2 over both rated ends against FD of its gradient."""
    arr, adm, vm, va = state
    nb = arr.n_bus
    prob = ACOPFProblem(case14)
    mu = RNG.uniform(0.1, 1.0, 2 * len(prob.rated))
    lam = np.zeros(2 * nb + 1)

    def mu_grad(vmm, vaa):
        _, dh = prob.inequalities(_point(prob, vmm, vaa))
        g = dh.T @ mu
        return g[:nb], g[nb : 2 * nb]

    blocks = _assembled_blocks(prob, _point(prob, vm, va), lam, mu)
    for got, want in zip(blocks, _fd_hessian_blocks(mu_grad, vm, va, mu, nb)):
        assert np.allclose(got, want, atol=1e-5)


def test_d2sbr_dv2_value_structure(case14, state):
    """Branch-flow curvature has the right shape, is finite and symmetric,
    and lives on the Ybus pattern of the voltage blocks."""
    arr, adm, vm, va = state
    nb = arr.n_bus
    prob = ACOPFProblem(case14)
    mu = RNG.uniform(0.1, 1.0, 2 * len(prob.rated))
    h = prob.lagrangian_hessian(_point(prob, vm, va), np.zeros(2 * nb + 1), mu)
    assert h.shape == (prob.nx, prob.nx)
    dense = h.toarray()
    assert np.all(np.isfinite(dense))
    assert np.allclose(dense, dense.T, atol=1e-9)
    on_ybus = (abs(adm.ybus) + abs(adm.ybus.T)).toarray() != 0
    np.fill_diagonal(on_ybus, True)
    for block in _assembled_blocks(prob, _point(prob, vm, va), np.zeros(2 * nb + 1), mu):
        assert not np.any(block[~on_ybus])
