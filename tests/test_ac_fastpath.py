"""AC ensemble fast path: warm-kernel parity, routing, caching, wiring.

Unlike the DC kernel's bit-identity promise (``test_batch_kernels``),
the warm AC path carries a *parity contract* — Newton iterates are
path-dependent, so the warm and cold solutions are different fixed-point
approaches to the same answer.  The contract, asserted here across
cases, chunk sizes, and dispatch modes:

* identical ``converged`` flags, row for row,
* identical overloaded-branch and voltage-violation sets,
* every accepted mismatch under the same ``tol``,
* aggregate fields within 1e-6 of the cold path.

What *is* exact: warm-path records are dispatch- and chunk-size-
invariant (rows never mix), error records are byte-identical on both
paths (failures degrade to the very same scalar ladder), and the
``ac_mode`` / ``ac_fd_sweeps`` knobs enter the store spec hash (the two
modes agree only to parity, so they never share a results digest).
"""

import dataclasses

import numpy as np
import pytest

from repro.contingency.nminus1 import run_n_minus_1
from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.powerflow import (
    AcKernel,
    solve_gauss_seidel,
    solve_newton,
    solve_with_recovery,
)
from repro.powerflow.solution import make_admittances
from repro.scenarios import (
    BatchStudyRunner,
    BranchOutage,
    GaussianLoadNoise,
    RenewableInjection,
    Scenario,
    UniformLoadScale,
    monte_carlo_ensemble,
)
from repro.scenarios.runner import StudyConfig, _WorkerState
from repro.service import StudyExecutor

TOL = 1e-8
AGG_ATOL = 1e-6


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _zero_times(study):
    out = []
    for r in study.results:
        d = dataclasses.asdict(r)
        d["solve_time_s"] = 0.0
        out.append(d)
    return out


def _assert_close(a, b, atol=AGG_ATOL, path=""):
    """Recursive structural equality with a float tolerance — the
    aggregate dicts carry unrounded stats that the parity contract only
    pins to 1e-6."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for k in a:
            _assert_close(a[k], b[k], atol, f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length differs"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, atol, f"{path}[{i}]")
    elif isinstance(a, float):
        assert a == pytest.approx(b, abs=atol), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _assert_record_parity(warm, cold):
    """The warm/cold parity contract, record by record."""
    assert len(warm.results) == len(cold.results)
    for w, c in zip(warm.results, cold.results):
        assert w.name == c.name
        assert w.converged == c.converged
        assert w.error == c.error
        assert w.overloaded_branches == c.overloaded_branches
        assert w.n_voltage_violations == c.n_voltage_violations
        if not w.converged:
            continue
        assert w.max_loading_percent == pytest.approx(
            c.max_loading_percent, abs=1e-4
        )
        assert w.min_voltage_pu == pytest.approx(c.min_voltage_pu, abs=AGG_ATOL)
        assert w.max_voltage_pu == pytest.approx(c.max_voltage_pu, abs=AGG_ATOL)
        assert w.losses_mw == pytest.approx(c.losses_mw, abs=1e-4)


# ----------------------------------------------------------------------
# kernel: stacked chunk vs per-scenario cold Newton
# ----------------------------------------------------------------------


class TestAcKernel:
    @pytest.mark.parametrize("case_name", ["ieee14", "ieee57", "ieee118"])
    def test_chunk_rows_match_cold_newton(self, case_name):
        net = load_case(case_name)
        scns = list(monte_carlo_ensemble(n=8, sigma=0.05, seed=3))
        kernel = AcKernel(net, tol=TOL)
        assert kernel.usable
        packs = [s.ac_injection(net) for s in scns]
        sol = kernel.solve_chunk(
            np.vstack([sbus for sbus, _, _ in packs]), fd_sweeps=8
        )
        assert sol.n_scenarios == len(scns)
        for j, scn in enumerate(scns):
            cold = solve_newton(scn.realize(net), tol=TOL)
            assert bool(sol.converged[j]) == cold.converged
            # Every accepted row sits under the same tolerance the cold
            # path enforces.
            assert sol.norms[j] < TOL
            _, pd, qd = packs[j]
            warm = kernel.finalize_row(
                sol.v[j], pd, qd,
                converged=True,
                iterations=int(sol.iterations[j]),
                norm=float(sol.norms[j]),
            )
            _assert_close(
                warm.overloaded_branches(100.0),
                cold.overloaded_branches(100.0),
                atol=1e-4,
            )
            _assert_close(
                warm.voltage_violations(0.94, 1.06),
                cold.voltage_violations(0.94, 1.06),
            )
            assert warm.max_loading_percent == pytest.approx(
                cold.max_loading_percent, abs=1e-4
            )
            assert warm.losses_mw == pytest.approx(cold.losses_mw, abs=1e-4)

    def test_base_row_skips_iteration(self, case14):
        kernel = AcKernel(case14, tol=TOL)
        sbus, _, _ = Scenario("base").ac_injection(case14)
        sol = kernel.solve_chunk(sbus)
        assert bool(sol.skipped[0])
        assert bool(sol.converged[0])
        assert int(sol.iterations[0]) == 0
        assert kernel.n_skipped == 1 and kernel.n_warm_solves == 0

    def test_base_result_cached(self, case14):
        kernel = AcKernel(case14)
        assert kernel.base_result() is kernel.base_result()

    def test_accounting(self, case14):
        kernel = AcKernel(case14)
        scns = list(monte_carlo_ensemble(n=4, sigma=0.05, seed=9))
        stack = np.vstack([s.ac_injection(case14)[0] for s in scns])
        kernel.solve_chunk(stack)
        assert kernel.n_chunks == 1
        assert kernel.n_warm_solves + kernel.n_skipped == 4


# ----------------------------------------------------------------------
# studies: warm vs cold, chunk sizes, dispatch modes
# ----------------------------------------------------------------------


class TestAcStudyParity:
    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_warm_vs_cold_across_chunk_sizes(self, case14, chunk_size):
        scns = monte_carlo_ensemble(n=8, sigma=0.06, seed=21)
        warm = BatchStudyRunner(
            analysis="powerflow", chunk_size=chunk_size
        ).run(case14, scns)
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=chunk_size, ac_mode="cold"
        ).run(case14, scns)
        _assert_record_parity(warm, cold)
        _assert_close(warm.aggregate().to_dict(), cold.aggregate().to_dict())

    def test_warm_records_invariant_across_dispatch(self, case14):
        """Rows never mix, so warm results are exactly identical under
        serial, pooled, and shared-executor dispatch (timing zeroed)."""
        scns = monte_carlo_ensemble(n=8, sigma=0.05, seed=11)
        serial = BatchStudyRunner(analysis="powerflow", n_jobs=1).run(
            case14, scns
        )
        pooled = BatchStudyRunner(analysis="powerflow", n_jobs=2).run(
            case14, scns
        )
        assert _zero_times(serial) == _zero_times(pooled)
        with StudyExecutor(max_workers=2) as executor:
            streamed = BatchStudyRunner(
                analysis="powerflow", executor=executor
            ).run(case14, scns, keep_results=False)
        assert (
            serial.aggregate().to_dict()
            == pooled.aggregate().to_dict()
            == streamed.aggregate().to_dict()
        )

    def test_mixed_chunk_preserves_order_and_degrades(self, case14):
        """Topology changers interleaved with injection-only rows: the
        fallback rows run the scalar loop, order is preserved, and the
        whole study still honours the parity contract."""
        scns = [
            Scenario("a", (UniformLoadScale(1.08),)),
            Scenario("b", (BranchOutage(2),)),
            Scenario("c", (GaussianLoadNoise(0.05, 3),)),
            Scenario("d", (BranchOutage(5), UniformLoadScale(1.05))),
            Scenario("e", (RenewableInjection(bus=4, p_mw=20.0),)),
        ]
        warm = BatchStudyRunner(analysis="powerflow", chunk_size=5).run(
            case14, scns
        )
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=5, ac_mode="cold"
        ).run(case14, scns)
        assert [r.name for r in warm.results] == list("abcde")
        _assert_record_parity(warm, cold)

    def test_error_records_byte_identical(self, case14):
        """Perturbation errors and diverging solves produce the exact
        same record on both paths — failures degrade to the same code."""
        scns = [
            Scenario("ok", (UniformLoadScale(1.05),)),
            Scenario("bad", (UniformLoadScale(-2.0),)),
            # Far beyond loadability: every ladder rung fails, warm
            # polish included, so the warm path re-runs it cold.
            Scenario("diverge", (UniformLoadScale(60.0),)),
        ]
        warm = BatchStudyRunner(analysis="powerflow", chunk_size=3).run(
            case14, scns
        )
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=3, ac_mode="cold"
        ).run(case14, scns)
        for name in ("bad", "diverge"):
            w = next(r for r in warm.results if r.name == name)
            c = next(r for r in cold.results if r.name == name)
            wd, cd = dataclasses.asdict(w), dataclasses.asdict(c)
            wd["solve_time_s"] = cd["solve_time_s"] = 0.0
            assert wd == cd
            assert not w.converged and w.error

    def test_ac_mode_validated(self, case14):
        with pytest.raises(ValueError, match="ac_mode"):
            BatchStudyRunner(analysis="powerflow", ac_mode="tepid").config()


# ----------------------------------------------------------------------
# warm starts through the solver stack
# ----------------------------------------------------------------------


class TestWarmStarts:
    def test_qlimit_partition_same_warm_or_cold(self, case57):
        """PV→PQ switching must settle on the same partition whether the
        solve starts flat-ish or from the base-case voltage."""
        base = solve_newton(case57)
        v0 = np.asarray(base.extras["v_complex"], dtype=complex)
        net = Scenario("up", (UniformLoadScale(1.25),)).realize(case57)
        cold = solve_newton(net, enforce_q=True)
        warm = solve_newton(net, enforce_q=True, v0=v0)
        assert cold.converged and warm.converged
        assert np.array_equal(
            cold.extras["final_bus_type"], warm.extras["final_bus_type"]
        )
        # The test is only meaningful if limits actually bind.
        arr = net.compile()
        assert not np.array_equal(cold.extras["final_bus_type"], arr.bus_type)

    def test_gauss_seidel_accepts_v0(self, case14):
        base = solve_newton(case14)
        v0 = np.asarray(base.extras["v_complex"], dtype=complex)
        warm = solve_gauss_seidel(case14, tol=1e-6, v0=v0)
        flat = solve_gauss_seidel(case14, tol=1e-6)
        assert warm.converged
        assert warm.iterations < flat.iterations
        assert warm.max_mismatch_pu < 1e-6

    def test_recovery_ladder_threads_v0(self, case14):
        base = solve_newton(case14)
        v0 = np.asarray(base.extras["v_complex"], dtype=complex)
        res, trace = solve_with_recovery(case14, v0=v0)
        assert res.converged
        # Already at the solution: the first (Newton) rung accepts
        # immediately.
        assert trace.attempts[0].options["ladder_step"] == "newton"
        assert res.iterations <= 1

    def test_n_minus_1_with_kernel_matches_plain(self, case14):
        plain = run_n_minus_1(case14)
        seeded = run_n_minus_1(case14, kernel=AcKernel(case14))
        assert len(plain.outcomes) == len(seeded.outcomes)
        for p, s in zip(plain.outcomes, seeded.outcomes):
            assert (p.branch_id, p.converged, p.islanded) == (
                s.branch_id, s.converged, s.islanded,
            )
            assert p.max_loading_percent == pytest.approx(
                s.max_loading_percent, abs=1e-4
            )
            assert [b for b, _ in p.overloads] == [b for b, _ in s.overloads]
            assert p.n_voltage_violations == s.n_voltage_violations


# ----------------------------------------------------------------------
# memoization and worker caches
# ----------------------------------------------------------------------


class TestCaches:
    def test_make_admittances_memoized_until_mutation(self, case14):
        _, adm1 = make_admittances(case14)
        _, adm2 = make_admittances(case14)
        assert adm2 is adm1
        case14.set_load(2, 30.0)  # touch() invalidates the memo
        _, adm3 = make_admittances(case14)
        assert adm3 is not adm1

    def test_ac_kernel_shared_across_load_levels(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="powerflow"))
        k1 = state.ac_kernel_for(case14)
        scaled = Scenario("s", (UniformLoadScale(1.2),)).realize(case14)
        assert state.ac_kernel_for(scaled) is k1
        assert len(state.ac_kernels) == 1

    def test_ac_kernel_cache_capped(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="powerflow"))
        state.ac_kernels.cap = 2
        for bid in range(4):
            net = Scenario("o", (BranchOutage(bid),)).realize(case14)
            state.ac_kernel_for(net)
        assert len(state.ac_kernels) <= 2


# ----------------------------------------------------------------------
# metrics and store hashing
# ----------------------------------------------------------------------


class TestMetricsAndHash:
    def test_warm_counters_and_scenario_billing(self, case14, fresh_metrics):
        scns = list(monte_carlo_ensemble(n=6, sigma=0.05, seed=4))
        state = _WorkerState(case14, StudyConfig(analysis="powerflow"))
        results = state.run_chunk(scns)
        assert len(results) == 6 and all(r.converged for r in results)
        warm = fresh_metrics.counter("gridmind_ac_warm_solves_total").total()
        skip = fresh_metrics.counter(
            "gridmind_ac_skipped_converged_total"
        ).total()
        assert warm + skip == 6.0
        # Metric parity: every scenario billed exactly once.
        assert (
            fresh_metrics.counter("gridmind_scenarios_total").total() == 6.0
        )

    def test_cold_mode_emits_no_warm_counters(self, case14, fresh_metrics):
        scns = list(monte_carlo_ensemble(n=4, sigma=0.05, seed=4))
        state = _WorkerState(
            case14, StudyConfig(analysis="powerflow", ac_mode="cold")
        )
        state.run_chunk(scns)
        assert (
            fresh_metrics.counter("gridmind_ac_warm_solves_total").total()
            == 0.0
        )
        assert (
            fresh_metrics.counter("gridmind_scenarios_total").total() == 4.0
        )

    def test_spec_hash_separates_ac_modes_and_budget(self, case14):
        from repro.service.store import spec_hash

        scns = list(monte_carlo_ensemble(n=2, sigma=0.05, seed=1))
        warm = spec_hash(StudyConfig(analysis="powerflow"), scns)
        cold = spec_hash(
            StudyConfig(analysis="powerflow", ac_mode="cold"), scns
        )
        fd2 = spec_hash(
            StudyConfig(analysis="powerflow", ac_fd_sweeps=2), scns
        )
        # Warm and cold records agree only to parity, so each mode (and
        # sweep budget) keys its own store entry and results digest.
        assert len({warm, cold, fd2}) == 3
        # Only powerflow reads the AC mode: other analyses ignore it, so
        # their keys do too.
        for analysis in ("dc", "screening"):
            assert len({
                spec_hash(StudyConfig(analysis=analysis, **knobs), scns)
                for knobs in ({}, {"ac_mode": "cold"}, {"ac_fd_sweeps": 2})
            }) == 1
        # The batched DC path is bit-identical, so its toggle stays out.
        assert spec_hash(
            StudyConfig(analysis="powerflow", batch_kernels=False), scns
        ) == warm
        # ac_budget changes which scenarios get full AC — it must hash.
        a = spec_hash(StudyConfig(analysis="screening", ac_budget=3), scns)
        b = spec_hash(StudyConfig(analysis="screening", ac_budget=4), scns)
        assert a != b
