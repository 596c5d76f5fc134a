"""AC/DC power-flow solvers: reference values, cross-method agreement,
warm starts, Q-limits, recovery ladder."""

import numpy as np
import pytest

from repro.grid.cases import load_case
from repro.grid.units import rad_to_deg
from repro.powerflow.newton import bus_power_injections
from repro.powerflow.solution import make_admittances
from repro.powerflow import (
    solve_dc,
    solve_fast_decoupled,
    solve_gauss_seidel,
    solve_newton,
    solve_with_recovery,
)

# Published IEEE 14 power-flow solution (UW archive / MATPOWER runpp).
IEEE14_VM = [1.060, 1.045, 1.010, 1.018, 1.020, 1.070, 1.062, 1.090,
             1.056, 1.051, 1.057, 1.055, 1.050, 1.036]
IEEE14_VA = [0.00, -4.98, -12.72, -10.31, -8.77, -14.22, -13.36, -13.36,
             -14.94, -15.10, -14.79, -15.07, -15.16, -16.03]


class TestNewton:
    def test_converges_ieee14(self, case14):
        res = solve_newton(case14)
        assert res.converged
        assert res.max_mismatch_pu < 1e-8

    def test_matches_published_solution(self, case14):
        res = solve_newton(case14)
        assert np.allclose(res.vm, IEEE14_VM, atol=2e-3)
        assert np.allclose(res.va_deg, IEEE14_VA, atol=0.05)

    def test_flat_start_same_solution(self, case14):
        a = solve_newton(case14)
        b = solve_newton(case14, flat_start=True)
        assert b.converged
        assert np.allclose(a.vm, b.vm, atol=1e-8)

    def test_warm_start_fewer_iterations(self, case118):
        base = solve_newton(case118)
        warm = solve_newton(case118, v0=base.extras["v_complex"])
        assert warm.converged
        assert warm.iterations <= 1

    def test_warm_start_wrong_length_rejected(self, case14):
        with pytest.raises(ValueError, match="warm-start"):
            solve_newton(case14, v0=np.ones(5, dtype=complex))

    @pytest.mark.parametrize(
        "solve",
        [solve_newton, solve_fast_decoupled, solve_gauss_seidel,
         lambda net, v0: solve_with_recovery(net, v0=v0)],
        ids=["newton", "fast_decoupled", "gauss_seidel", "recovery"],
    )
    def test_every_solver_rejects_wrong_length_warm_start(self, case14, solve):
        with pytest.raises(ValueError, match="warm-start voltage has 20 entries, expected 14"):
            solve(case14, v0=np.ones(20, dtype=complex))

    def test_losses_positive(self, case14):
        res = solve_newton(case14)
        assert 0.0 < res.losses_mw < 30.0

    def test_generation_balances_load_plus_losses(self, case14):
        res = solve_newton(case14)
        total_gen = res.gen_p_mw.sum()
        assert total_gen == pytest.approx(259.0 + res.losses_mw, abs=1e-3)

    def test_nonconvergence_reported_not_raised(self, case14):
        case14.scale_loads(20.0)  # physically impossible demand
        res = solve_newton(case14, max_iter=15)
        assert not res.converged
        assert "not converge" in res.message

    @pytest.mark.parametrize("name", ["ieee30", "ieee57", "ieee118", "ieee300"])
    def test_converges_all_synthetic_cases(self, name):
        res = solve_newton(load_case(name))
        assert res.converged
        assert res.min_voltage_pu > 0.94

    def test_q_limit_enforcement_converts_pv(self, case14):
        # Shrink gen 2's Q band so enforcement must clamp it.
        case14.gens[1].qmax_mvar = 10.0
        case14.gens[1].qmin_mvar = -10.0
        case14.touch()
        res = solve_newton(case14, enforce_q=True)
        assert res.converged
        bt = res.extras["final_bus_type"]
        assert bt[1] == 1  # PV bus 2 switched to PQ

    def test_q_limit_respected_after_enforcement(self, case14):
        case14.gens[1].qmax_mvar = 10.0
        case14.gens[1].qmin_mvar = -10.0
        case14.touch()
        res = solve_newton(case14, enforce_q=True)
        row = list(res.gen_ids).index(1)
        assert res.gen_q_mvar[row] <= 10.0 + 1e-4


class TestCrossMethodAgreement:
    def test_fdpf_matches_newton(self, case14):
        nr = solve_newton(case14)
        fd = solve_fast_decoupled(case14)
        assert fd.converged
        assert np.allclose(nr.vm, fd.vm, atol=1e-6)

    def test_fdpf_bx_variant(self, case14):
        fd = solve_fast_decoupled(case14, variant="bx")
        assert fd.converged

    def test_fdpf_unknown_variant(self, case14):
        with pytest.raises(ValueError, match="variant"):
            solve_fast_decoupled(case14, variant="zz")

    def test_gauss_seidel_matches_newton(self, case14):
        nr = solve_newton(case14)
        gs = solve_gauss_seidel(case14, tol=1e-8, max_iter=5000)
        assert gs.converged
        assert np.allclose(nr.vm, gs.vm, atol=1e-5)

    def test_fdpf_matches_newton_on_118(self, case118):
        nr = solve_newton(case118)
        fd = solve_fast_decoupled(case118, max_iter=150)
        assert fd.converged
        assert np.allclose(nr.vm, fd.vm, atol=1e-5)


def _textbook_gauss_seidel(net, sweeps, acceleration, v0):
    """The textbook per-bus sweep, with no plan: the reference
    ``solve_gauss_seidel`` must reproduce bit for bit."""
    arr, adm = make_admittances(net)
    ybus = adm.ybus.tocsr()
    v = np.asarray(v0, dtype=complex).copy()
    sbus = bus_power_injections(arr)
    pv = set(int(b) for b in arr.pv_buses)
    slack = set(int(b) for b in arr.slack_buses)
    ydiag = ybus.diagonal()
    indptr, indices, data = ybus.indptr, ybus.indices, ybus.data
    for _ in range(sweeps):
        for bus in range(arr.n_bus):
            if bus in slack:
                continue
            lo, hi = indptr[bus], indptr[bus + 1]
            i_other = data[lo:hi] @ v[indices[lo:hi]] - ydiag[bus] * v[bus]
            if bus in pv:
                q_new = (v[bus] * np.conj(i_other + ydiag[bus] * v[bus])).imag
                s = sbus[bus].real + 1j * q_new
                v_new = (np.conj(s / v[bus]) - i_other) / ydiag[bus]
                v[bus] = np.abs(v[bus]) * v_new / np.abs(v_new)
            else:
                v_new = (np.conj(sbus[bus] / v[bus]) - i_other) / ydiag[bus]
                v[bus] = v[bus] + acceleration * (v_new - v[bus])
    return v


class TestGaussSeidelSweep:
    # ieee57 adds PV buses, each a paired magnitude call per sweep.
    @pytest.mark.parametrize("name", ["ieee14", "ieee30", "ieee57"])
    @pytest.mark.parametrize("acceleration", [1.0, 1.4])
    def test_sweep_is_bit_identical_to_textbook_loop(self, name, acceleration):
        net = load_case(name)
        net.scale_loads(1.15)
        arr = net.compile()
        rng = np.random.default_rng(11)
        v0 = (arr.vm0 + rng.uniform(-0.05, 0.05, arr.n_bus)) * np.exp(
            1j * (arr.va0 + rng.uniform(-0.1, 0.1, arr.n_bus))
        )
        res = solve_gauss_seidel(net, tol=0.0, max_iter=40, acceleration=acceleration, v0=v0)
        want = _textbook_gauss_seidel(net, 40, acceleration, v0)
        assert res.iterations == 40 and not res.converged
        assert np.array_equal(res.vm, np.abs(want))
        assert np.array_equal(res.va_deg, rad_to_deg(np.angle(want)))


class TestDC:
    def test_dc_flows_approximate_ac(self, case14):
        ac = solve_newton(case14)
        dc = solve_dc(case14)
        # DC active flows within ~10% of AC on the heavy branches.
        heavy = np.abs(ac.p_from_mw) > 20.0
        rel = np.abs(dc.p_from_mw[heavy] - ac.p_from_mw[heavy]) / np.abs(
            ac.p_from_mw[heavy]
        )
        assert np.max(rel) < 0.15

    def test_dc_is_lossless(self, case14):
        dc = solve_dc(case14)
        assert dc.losses_mw == 0.0
        assert np.allclose(dc.p_from_mw + dc.p_to_mw, 0.0)

    def test_dc_slack_balances(self, case14):
        dc = solve_dc(case14)
        assert dc.gen_p_mw.sum() == pytest.approx(case14.total_load_mw(), abs=1e-6)

    def test_dc_flat_voltage(self, case14):
        dc = solve_dc(case14)
        assert np.all(dc.vm == 1.0)


class TestRecovery:
    def test_recovery_trivial_case_single_attempt(self, case14):
        res, trace = solve_with_recovery(case14)
        assert res.converged
        assert len(trace.attempts) == 1
        assert trace.attempts[0].method == "newton"

    def test_recovery_ladder_records_attempts(self, case14):
        case14.scale_loads(20.0)
        res, trace = solve_with_recovery(case14)
        assert not res.converged
        assert len(trace.attempts) == 4  # every rung tried and recorded
        methods = [a.method for a in trace.attempts]
        assert methods[0] == "newton"
        assert "gauss-seidel" in methods[-1]


class TestResultHelpers:
    def test_overloaded_branches_sorted(self, case118):
        case118.scale_loads(1.4)
        res = solve_newton(case118)
        if res.converged:
            over = res.overloaded_branches()
            pcts = [p for _, p in over]
            assert pcts == sorted(pcts, reverse=True)

    def test_voltage_violations_detects_band(self, case14):
        res = solve_newton(case14)
        # IEEE 14's published solution has bus 8 at 1.09 > 1.06.
        violations = res.voltage_violations(0.94, 1.06)
        buses = [b for b, _ in violations]
        assert 7 in buses  # internal index of IEEE bus 8
