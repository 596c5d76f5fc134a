"""Finite-difference and bit-identity checks of all analytic derivatives.

The power-flow and ACOPF stacks are only as correct as these formulas;
each block is checked against central differences on the genuine IEEE 14
state and on a perturbed (non-flat) voltage vector.
:class:`NewtonJacobian` is the Newton power flow's fixed-pattern fill; it
is checked against central differences and, bit for bit, against the
sparse-product form it replaced (``dSbus_dV`` sliced and joined by
``bmat``), which lives on here as the reference.  The branch-flow and
second-order blocks are the element-wise fills of :class:`ACOPFProblem`,
checked block by block against the MATPOWER formulas they implement
(``dSbr_dV``, ``d2Sbus_dV2``, ``d2Sbr_dV2``, ``d2Abr_dV2``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.grid.cases import load_case
from repro.grid.components import BusType
from repro.grid.ybus import build_admittances
from repro.opf.acopf import ACOPFProblem
from repro.powerflow.jacobian import NewtonJacobian

RNG = np.random.default_rng(42)
EPS = 1e-6


def dSbus_dV(ybus, v):
    """Reference ``(dS/dVa, dS/dVm)`` of ``S = diag(V) conj(Ybus V)``.

    MATPOWER's sparse-product form, which the Newton power flow assembled
    its Jacobian from before :class:`NewtonJacobian`.
    """
    ibus = ybus @ v
    diag_v = sparse.diags(v, format="csr")
    diag_ibus = sparse.diags(ibus, format="csr")
    diag_vnorm = sparse.diags(v / np.abs(v), format="csr")

    ds_dvm = diag_v @ (ybus @ diag_vnorm).conjugate() + diag_ibus.conjugate() @ diag_vnorm
    ds_dva = 1j * diag_v @ (diag_ibus - ybus @ diag_v).conjugate()
    return ds_dva.tocsr(), ds_dvm.tocsr()


def product_jacobian(ybus, v, bus_type):
    """The Newton Jacobian as four ``np.ix_`` slices joined by ``bmat``."""
    pv = np.flatnonzero(bus_type == int(BusType.PV))
    pq = np.flatnonzero(bus_type == int(BusType.PQ))
    pvpq = np.concatenate([pv, pq])
    ds_dva, ds_dvm = dSbus_dV(ybus, v)
    j11 = ds_dva[np.ix_(pvpq, pvpq)].real
    j12 = ds_dvm[np.ix_(pvpq, pq)].real
    j21 = ds_dva[np.ix_(pq, pvpq)].imag
    j22 = ds_dvm[np.ix_(pq, pq)].imag
    return sparse.bmat([[j11, j12], [j21, j22]], format="csc")


@pytest.fixture
def state(case14):
    arr = case14.compile()
    adm = build_admittances(arr)
    vm = arr.vm0 + RNG.uniform(-0.03, 0.03, arr.n_bus)
    va = arr.va0 + RNG.uniform(-0.1, 0.1, arr.n_bus)
    return arr, adm, vm, va


def _v(vm, va):
    return vm * np.exp(1j * va)


def _newton_fd(adm, jac, vm, va, wrt):
    """Central differences of the Newton mismatch ``[P(pvpq), Q(pq)]``
    with respect to ``va[pvpq]`` or ``vm[pq]``."""

    def mismatch(vmm, vaa):
        v = _v(vmm, vaa)
        s = v * np.conj(adm.ybus @ v)
        return np.concatenate([s[jac.pvpq].real, s[jac.pq].imag])

    buses = jac.pvpq if wrt == "va" else jac.pq
    fd = np.zeros((jac.n, len(buses)))
    for col, bus in enumerate(buses):
        plus, minus = [vm.copy(), va.copy()], [vm.copy(), va.copy()]
        k = 1 if wrt == "va" else 0
        plus[k][bus] += EPS
        minus[k][bus] -= EPS
        fd[:, col] = (mismatch(*plus) - mismatch(*minus)) / (2 * EPS)
    return fd


def test_dsbus_dva_matches_fd(state):
    """The Newton Jacobian's angle columns: d[P(pvpq), Q(pq)] / dVa(pvpq)."""
    arr, adm, vm, va = state
    jac = NewtonJacobian(adm.ybus, arr.bus_type)
    dense = jac(_v(vm, va)).toarray()
    fd = _newton_fd(adm, jac, vm, va, "va")
    assert np.allclose(dense[:, : len(jac.pvpq)], fd, atol=1e-6)


def test_dsbus_dvm_matches_fd(state):
    """The Newton Jacobian's magnitude columns: d[P(pvpq), Q(pq)] / dVm(pq)."""
    arr, adm, vm, va = state
    jac = NewtonJacobian(adm.ybus, arr.bus_type)
    dense = jac(_v(vm, va)).toarray()
    fd = _newton_fd(adm, jac, vm, va, "vm")
    assert np.allclose(dense[:, len(jac.pvpq) :], fd, atol=1e-6)


def test_reference_dsbus_dv_matches_fd(state):
    """The reference the bit-identity property compares against."""
    arr, adm, vm, va = state
    ds_dva, ds_dvm = dSbus_dV(adm.ybus, _v(vm, va))
    n = arr.n_bus

    def s(vmm, vaa):
        v = _v(vmm, vaa)
        return v * np.conj(adm.ybus @ v)

    for got, k in ((ds_dva, 1), (ds_dvm, 0)):
        fd = np.zeros((n, n), dtype=complex)
        for j in range(n):
            plus, minus = [vm.copy(), va.copy()], [vm.copy(), va.copy()]
            plus[k][j] += EPS
            minus[k][j] -= EPS
            fd[:, j] = (s(*plus) - s(*minus)) / (2 * EPS)
        assert np.allclose(got.toarray(), fd, atol=1e-6)


@pytest.fixture(scope="module")
def masters():
    return {name: load_case(name) for name in ("ieee14", "ieee30", "ieee118")}


def _assert_bit_identical(got, want):
    assert got.format == "csc" and got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def test_newton_jacobian_matches_product_form_on_every_outage(masters):
    """Every one-branch outage of ieee14/30, islanding ones included: an
    isolated bus's diagonal entries are exact zeros the product form does
    not store, so the pattern must leave them out too.  The all-PQ
    partition puts an isolated PV bus's magnitude derivative into J."""
    rng = np.random.default_rng(5)
    for name in ("ieee14", "ieee30"):
        for branch in range(masters[name].n_branch):
            net = masters[name].copy()
            net.set_branch_status(branch, False)
            arr = net.compile()
            ybus = build_admittances(arr).ybus
            all_pq = np.where(
                arr.bus_type == int(BusType.SLACK), int(BusType.SLACK), int(BusType.PQ)
            )
            for bus_type in (arr.bus_type, all_pq):
                v = _v(rng.uniform(0.9, 1.1, arr.n_bus), rng.uniform(-0.5, 0.5, arr.n_bus))
                got = NewtonJacobian(ybus, bus_type)(v)
                _assert_bit_identical(got, product_jacobian(ybus, v, bus_type))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(["ieee14", "ieee30", "ieee118"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    outage=st.booleans(),
    partition=st.sampled_from(["case", "switched", "random"]),
    flat=st.booleans(),
)
def test_newton_jacobian_is_bit_identical_to_product_form(
    masters, name, seed, outage, partition, flat
):
    """Same CSC ``data``/``indices``/``indptr`` as the ``bmat`` product form.

    Draws cover one-branch outages (islanding ones included), the case's
    own PV/PQ partition, ones after a PV→PQ switch, arbitrary ones, and
    flat or random voltages.
    """
    rng = np.random.default_rng(seed)
    net = masters[name].copy()
    if outage:
        net.set_branch_status(int(rng.integers(net.n_branch)), False)
    arr = net.compile()
    ybus = build_admittances(arr).ybus
    bus_type = arr.bus_type.copy()
    pv = np.flatnonzero(bus_type == int(BusType.PV))
    if partition == "switched":
        bus_type[pv[rng.random(len(pv)) < 0.3]] = int(BusType.PQ)
    elif partition == "random":
        free = np.flatnonzero(bus_type != int(BusType.SLACK))
        bus_type[free] = np.where(
            rng.random(len(free)) < 0.5, int(BusType.PV), int(BusType.PQ)
        )
    jac = NewtonJacobian(ybus, bus_type)

    first = (
        np.ones(arr.n_bus, dtype=complex)
        if flat
        else _v(rng.uniform(0.9, 1.1, arr.n_bus), rng.uniform(-0.5, 0.5, arr.n_bus))
    )
    second = _v(rng.uniform(0.9, 1.1, arr.n_bus), rng.uniform(-0.5, 0.5, arr.n_bus))
    for v in (first, second):
        got = jac(v)
        _assert_bit_identical(got, product_jacobian(ybus, v, bus_type))
        # One pattern serves every fill.
        assert np.shares_memory(got.indptr, jac.indptr)
        assert np.shares_memory(got.indices, jac.indices)


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
