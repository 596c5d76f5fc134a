"""The ACOPF's fixed-pattern assembly: exact derivatives, stable patterns.

:class:`ACOPFProblem` fills every derivative element by element over a
pattern fixed per problem.  These tests pin that down from the outside:

* the whole Lagrangian Hessian against central differences of the
  Lagrangian gradient ``df + dg' lam + dh' mu`` (ieee14/30/118 plus a
  property over random states),
* identical ``indptr``/``indices`` on every call of every callback,
* the equality Jacobian's voltage blocks against the Newton power flow's
  independent sparse-product ``dSbus_dV``,
* vectorised generator costs bit-identical to per-generator
  ``np.polyval``/``np.polyder``,
* solver parity against ``tests/data/acopf_parity.json``: results and
  iteration counts recorded from the sparse-product assembly this one
  replaced (commit 4aab0e0).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.grid.cases import load_case
from repro.opf.acopf import ACOPFProblem, FixedPattern, solve_acopf
from repro.opf.costs import PolynomialCosts
from repro.opf.scopf import _SecuredProblem, _screen_violations, solve_scopf
from repro.powerflow.jacobian import dSbus_dV

PARITY = json.loads((Path(__file__).parent / "data" / "acopf_parity.json").read_text())

#: Row of the ieee118 branch the ``ieee118-bind`` variant re-rates, and its
#: new rating (80 % of its economic-dispatch flow), so the limit binds.
BIND_ROW, BIND_RATE_MVA = 24, 338.8


def _random_state(prob: ACOPFProblem, seed: int):
    """A non-flat iterate with random multipliers of realistic size."""
    rng = np.random.default_rng(seed)
    x = prob.initial_point()
    x[prob.sl_va] += rng.uniform(-0.3, 0.3, prob.nb)
    x[prob.sl_vm] += rng.uniform(-0.05, 0.05, prob.nb)
    x[prob.sl_pg] += rng.uniform(-0.1, 0.1, prob.ng)
    lam = rng.normal(0.0, 1e3, 2 * prob.nb + 1)
    mu = rng.uniform(0.0, 10.0, 2 * len(prob.rated))
    return x, lam, mu


def _lagrangian_gradient(prob, x, lam, mu):
    _, df = prob.objective(x)
    _, dg = prob.equalities(x)
    _, dh = prob.inequalities(x)
    return df + dg.T @ lam + dh.T @ mu


def _assert_hessian_matches_fd(prob, x, lam, mu, eps=1e-6):
    hess = prob.lagrangian_hessian(x, lam, mu).toarray()
    fd = np.empty_like(hess)
    for j in range(prob.nx):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        fd[:, j] = (
            _lagrangian_gradient(prob, xp, lam, mu) - _lagrangian_gradient(prob, xm, lam, mu)
        ) / (2 * eps)
    scale = max(1.0, float(np.abs(hess).max()))
    assert np.abs(hess - fd).max() <= 1e-6 * scale
    assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-9 * scale)


@pytest.fixture(scope="module")
def problems():
    return {name: ACOPFProblem(load_case(name)) for name in ("ieee14", "ieee30", "ieee118")}


class TestHessian:
    @pytest.mark.parametrize("name", ["ieee14", "ieee30", "ieee118"])
    def test_lagrangian_hessian_matches_fd(self, problems, name):
        prob = problems[name]
        _assert_hessian_matches_fd(prob, *_random_state(prob, seed=7))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    def test_lagrangian_hessian_matches_fd_property(self, case14, seed, scale):
        prob = ACOPFProblem(case14)
        x, lam, mu = _random_state(prob, seed)
        _assert_hessian_matches_fd(prob, x, lam * scale, mu * scale)

    def test_unrated_network(self, tiny_net):
        """No rated branch: empty flow-limit rows, power balance only."""
        for br in tiny_net.branches:
            br.rate_a_mva = 0.0
        tiny_net.touch()
        prob = ACOPFProblem(tiny_net)
        h, dh = prob.inequalities(prob.initial_point())
        assert h.shape == (0,) and dh.shape == (0, prob.nx)
        _assert_hessian_matches_fd(prob, *_random_state(prob, seed=1))
        assert solve_acopf(tiny_net).converged

    def test_voltage_blocks_match_newton_jacobian(self, problems):
        """The element-wise dS/dVa, dS/dVm equal the sparse-product form."""
        prob = problems["ieee118"]
        x, _, _ = _random_state(prob, seed=3)
        _, dg = prob.equalities(x)
        dva, dvm = (m.toarray() for m in dSbus_dV(prob.adm.ybus, prob.voltage(x)))
        nb = prob.nb
        dense = dg.toarray()
        atol = 1e-12 * np.abs(dva).max()
        for got, want in (
            (dense[:nb, :nb], dva.real), (dense[nb : 2 * nb, :nb], dva.imag),
            (dense[:nb, nb : 2 * nb], dvm.real), (dense[nb : 2 * nb, nb : 2 * nb], dvm.imag),
        ):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)

    def test_power_balance_is_the_equality_value(self, problems):
        prob = problems["ieee30"]
        x, _, _ = _random_state(prob, seed=5)
        g, _ = prob.equalities(x)
        assert np.array_equal(prob.power_balance(x), g[: 2 * prob.nb])


def _callbacks(prob, x, lam, mu):
    return {
        "equalities": prob.equalities(x)[1],
        "inequalities": prob.inequalities(x)[1],
        "hessian": prob.lagrangian_hessian(x, lam, mu),
    }


class TestFixedPattern:
    def _assert_stable(self, prob, patterns):
        first = None
        for seed in range(3):
            x, lam, mu = _random_state(prob, seed)
            for multipliers in ((lam, mu), (np.zeros_like(lam), np.zeros_like(mu))):
                mats = _callbacks(prob, x, *multipliers)
                for name, mat in mats.items():
                    pat = patterns[name]
                    assert mat.format == "csr" and mat.has_sorted_indices
                    assert np.shares_memory(mat.indices, pat.indices)
                    assert np.shares_memory(mat.indptr, pat.indptr)
                if first is None:
                    first = {k: (m.indptr.copy(), m.indices.copy()) for k, m in mats.items()}
                for name, mat in mats.items():
                    assert np.array_equal(mat.indptr, first[name][0])
                    assert np.array_equal(mat.indices, first[name][1])

    @pytest.mark.parametrize("name", ["ieee14", "ieee118"])
    def test_callbacks_share_one_pattern(self, problems, name):
        prob = problems[name]
        self._assert_stable(prob, {"equalities": prob.eq_pattern,
                                   "inequalities": prob.ineq_pattern,
                                   "hessian": prob.hess_pattern})

    def test_security_rows_share_the_pattern(self, case30):
        res = solve_acopf(case30)
        cuts = _screen_violations(case30, res.pg_mw / case30.base_mva, relief=1.0)
        assert cuts
        prob = _SecuredProblem(case30, cuts)
        self._assert_stable(prob, {"equalities": prob.eq_pattern,
                                   "inequalities": prob.ineq_pattern,
                                   "hessian": prob.hess_pattern})
        # The security rows are constant: +c and -c over the pg columns.
        x, _, _ = _random_state(prob, seed=1)
        h, dh = prob.inequalities(x)
        nr = 2 * len(prob.rated)
        sec = dh.toarray()[nr:]
        coeff = np.array([np.asarray(sc.row @ prob.cg).ravel() for sc in cuts])
        assert np.array_equal(sec[0::2, prob.sl_pg], coeff)
        assert np.array_equal(sec[1::2, prob.sl_pg], -coeff)
        assert not np.any(np.delete(sec, np.r_[prob.sl_pg], axis=1))
        flow = coeff @ x[prob.sl_pg] - np.array([sc.row @ prob.arr.pd for sc in cuts])
        bound = np.array([sc.bound for sc in cuts])
        np.testing.assert_allclose(h[nr::2], flow - bound, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(h[nr + 1 :: 2], -flow - bound, rtol=1e-12, atol=1e-12)

    def test_zero_values_stay_stored(self):
        pat = FixedPattern(np.array([1, 0, 1]), np.array([0, 1, 2]), (2, 3))
        mat = pat.fill(np.array([0.0, 2.0, 3.0]))
        assert mat.nnz == 3
        assert mat.toarray().tolist() == [[0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FixedPattern(np.array([0, 0]), np.array([1, 1]), (1, 2))


def _loop_costs(coeffs, base, pg_pu):
    """The per-generator ``np.polyval``/``np.polyder`` evaluation."""
    p_mw = np.asarray(pg_pu) * base
    total = 0.0
    grad = np.empty(len(coeffs))
    hess = np.empty(len(coeffs))
    for i, cs in enumerate(coeffs):
        total += float(np.polyval(cs, p_mw[i]))
        grad[i] = float(np.polyval(np.polyder(cs), p_mw[i])) * base
        hess[i] = (float(np.polyval(np.polyder(cs, 2), p_mw[i])) * base**2
                   if len(cs) >= 3 else 0.0)
    return total, grad, hess


class TestCosts:
    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=4).map(tuple),
            min_size=1, max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
        base=st.sampled_from([1.0, 100.0, 250.0]),
    )
    def test_bit_identical_to_per_generator_loop(self, coeffs, seed, base):
        pg = np.random.default_rng(seed).uniform(-2.0, 5.0, len(coeffs))
        costs = PolynomialCosts(coeffs, base)
        total, grad, hess = _loop_costs(costs.coeffs, base, pg)
        assert costs.cost(pg) == total
        assert np.array_equal(costs.gradient(pg), grad)
        assert np.array_equal(costs.hessian_diag(pg), hess)
        assert np.array_equal(costs.marginal_cost_mw(pg), grad / base)


def _assert_parity(res, ref):
    assert res.converged == ref["converged"]
    assert res.iterations == ref["iterations"]
    assert res.objective_cost == pytest.approx(ref["objective"], rel=1e-6)
    for got, key in ((res.pg_mw, "pg_mw"), (res.vm, "vm")):
        want = np.array(ref[key])
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())


class TestSolverParity:
    @pytest.mark.parametrize("name", ["ieee14", "ieee30", "ieee57", "ieee118"])
    def test_acopf(self, name):
        _assert_parity(solve_acopf(load_case(name)), PARITY[name])

    def test_acopf_with_binding_limit(self):
        net = load_case("ieee118")
        net.branches[int(net.compile().branch_ids[BIND_ROW])].rate_a_mva = BIND_RATE_MVA
        net.touch()
        res = solve_acopf(net)
        _assert_parity(res, PARITY["ieee118-bind"])
        assert res.loading_percent[BIND_ROW] == pytest.approx(100.0, abs=1e-4)

    def test_scopf(self):
        res = solve_scopf(load_case("ieee30"))
        ref = PARITY["scopf-ieee30"]
        assert res.iterations == ref["rounds"]
        _assert_parity(res.opf, ref)
