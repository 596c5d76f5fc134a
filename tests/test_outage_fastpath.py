"""Outage fast path: compensated warm-FD kernel rows vs the scalar path.

:meth:`AcKernel.solve_outages` solves branch-outage rows stacked, warm
from the base voltage, through the base B'/B'' factorizations — each row
corrected by a low-rank Sherman-Morrison-Woodbury update for its missing
branches, with the exact post-outage mismatch and no Ybus rebuild.  Rows
it cannot serve (the outage islands, the sweeps stall) are handed back
and rerun on the scalar path.  The contract, row for row against the
scalar ``analyze_single_outage`` / cold study records:

* identical ``converged`` and ``islanded`` flags,
* identical overload and voltage-violation sets,
* every kernel row's mismatch under ``tol`` on the *real* post-outage
  Ybus (rebuilt from scratch, not compensated),
* max loading within 1e-6 (relative),
* handed-back rows carry the scalar record byte for byte.
"""

import dataclasses
import functools
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contingency import nminus1
from repro.contingency.nminus1 import analyze_single_outage, run_n_minus_1
from repro.grid import graph as gridgraph
from repro.grid.cases import load_case
from repro.grid.components import BusType
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.instrumentation.trace import tracing
from repro.powerflow import AcKernel, ac_batch, solve_newton
from repro.powerflow.newton import bus_power_injections
from repro.powerflow.solution import make_admittances
from repro.scenarios import (
    BatchStudyRunner,
    BranchOutage,
    GeneratorOutage,
    Scenario,
    UniformLoadScale,
    monte_carlo_ensemble,
)
from repro.scenarios.generators import outage_combinations
from repro.scenarios.runner import _WorkerState
from repro.service import StudyExecutor

TOL = 1e-8
#: The ieee57 outage whose compensated sweeps stall: scalar Newton takes
#: 8 iterations from the base voltage, while FD iterated far enough
#: lands on a different solution — so the kernel must hand it back.
IEEE57_FD_STALL = 38


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@functools.lru_cache(maxsize=None)
def _shared_case(name):
    """One loaded case per name for the hypothesis properties (read-only)."""
    return load_case(name)


def _post_outage(net, outaged):
    post = net.copy()
    for bid in outaged:
        post.set_branch_status(bid, False)
    return post


def _mismatch(post, v):
    """Max P/Q mismatch of ``v`` on ``post``, its Ybus built from scratch."""
    arr, adm = make_admittances(post)
    mis = v * np.conj(adm.ybus @ v) - bus_power_injections(arr)
    p_rows = np.flatnonzero(arr.bus_type != int(BusType.SLACK))
    q_rows = np.flatnonzero(arr.bus_type == int(BusType.PQ))
    return max(
        np.abs(mis[p_rows].real).max(initial=0.0),
        np.abs(mis[q_rows].imag).max(initial=0.0),
    )


def _assert_kernel_rows(net, sets, *, kernel=None):
    """Kernel rows vs a scalar Newton solve of each realized network.

    Returns the number of rows the kernel served itself.
    """
    kernel = kernel or AcKernel(net)
    sol = kernel.solve_outages(sets)
    v_base = kernel.base_result().extras["v_complex"]
    served = 0
    for ids, row, reason in zip(sets, sol.rows, sol.reasons):
        post = _post_outage(net, ids)
        islanded = not gridgraph.is_connected(post)
        if row is None:
            assert reason in ("islanded", "fd-stalled"), ids
            assert (reason == "islanded") == islanded, ids
            continue
        served += 1
        assert reason is None and not islanded, ids
        assert _mismatch(post, row.v) < TOL, ids
        ref = solve_newton(post, v0=v_base, max_iter=25)
        assert ref.converged, ids
        assert [b for b, _ in row.overloaded_branches()] == [
            b for b, _ in ref.overloaded_branches()
        ], ids
        assert [i for i, _ in row.voltage_violations()] == [
            i for i, _ in ref.voltage_violations()
        ], ids
        assert row.max_loading_percent == pytest.approx(
            ref.max_loading_percent, rel=1e-6
        ), ids
        assert row.min_voltage_pu == pytest.approx(ref.min_voltage_pu, abs=1e-6)
        assert row.losses_mw == pytest.approx(ref.losses_mw, abs=1e-4)
    return served


def _scalar_outcomes(net, branch_ids):
    """The pre-kernel sweep: one warm Newton (+ recovery) per outage."""
    base = solve_newton(net)
    v_base = base.extras["v_complex"]
    bridges = gridgraph.bridge_branches(net)
    return [
        analyze_single_outage(net, b, bridges=bridges, v_base=v_base)
        for b in branch_ids
    ]


def _no_time(outcome):
    return dataclasses.replace(outcome, solve_time_s=0.0)


def _assert_outcome_parity(fast, slow):
    assert fast.branch_id == slow.branch_id
    assert (fast.converged, fast.islanded) == (slow.converged, slow.islanded)
    if fast.method != "fdpf-xb":  # handed back: the scalar record itself
        assert _no_time(fast) == _no_time(slow)
        return
    assert [b for b, _ in fast.overloads] == [b for b, _ in slow.overloads]
    assert [i for i, _ in fast.voltage_violations] == [
        i for i, _ in slow.voltage_violations
    ]
    assert fast.max_loading_percent == pytest.approx(
        slow.max_loading_percent, rel=1e-6
    )
    assert fast.min_voltage_pu == pytest.approx(slow.min_voltage_pu, abs=1e-6)
    assert fast.max_voltage_pu == pytest.approx(slow.max_voltage_pu, abs=1e-6)
    assert fast.estimated_curtailment_mw == pytest.approx(
        slow.estimated_curtailment_mw, rel=1e-6, abs=1e-6
    )


def _zero_times(study):
    out = []
    for r in study.results:
        d = dataclasses.asdict(r)
        d["solve_time_s"] = 0.0
        out.append(d)
    return out


def _assert_record_parity(warm, cold):
    assert len(warm.results) == len(cold.results)
    for w, c in zip(warm.results, cold.results):
        assert (w.name, w.converged, w.error) == (c.name, c.converged, c.error)
        assert w.overloaded_branches == c.overloaded_branches
        assert w.n_voltage_violations == c.n_voltage_violations
        if w.converged:
            assert w.max_loading_percent == pytest.approx(
                c.max_loading_percent, rel=1e-6
            )
            assert w.min_voltage_pu == pytest.approx(c.min_voltage_pu, abs=1e-6)
            assert w.max_voltage_pu == pytest.approx(c.max_voltage_pu, abs=1e-6)
            assert w.losses_mw == pytest.approx(c.losses_mw, abs=1e-4)


def _fallbacks(registry, **labels):
    return registry.counter("gridmind_fastpath_fallbacks_total").value(**labels)


# ----------------------------------------------------------------------
# kernel rows vs the realized post-outage network
# ----------------------------------------------------------------------


class TestKernelRows:
    @pytest.mark.parametrize("case_name", ["ieee14", "ieee30", "ieee57", "ieee118"])
    def test_n1_rows_match_post_outage_solves(self, case_name):
        net = load_case(case_name)
        ids = net.in_service_branch_ids()
        served = _assert_kernel_rows(net, [(b,) for b in ids])
        assert served >= len(ids) - 10

    def test_transformer_and_bus_adjacent_outages(self, case118):
        net = case118
        arr = net.compile()
        slack = net.slack_bus()
        pv = set(np.flatnonzero(arr.bus_type == int(BusType.PV)).tolist())
        ids = net.in_service_branch_ids()
        tapped = [
            b for b in ids
            if net.branches[b].is_transformer
            and abs(net.branches[b].effective_tap - 1.0) > 1e-9
        ]
        at_slack = [
            b for b in ids if slack in (net.branches[b].from_bus, net.branches[b].to_bus)
        ]
        at_pv = [
            b for b in ids
            if {net.branches[b].from_bus, net.branches[b].to_bus} & pv
        ][:12]
        assert tapped and at_slack and at_pv
        sets = [(b,) for b in tapped + at_slack + at_pv]
        # None of these split the grid: the kernel serves every one.
        assert _assert_kernel_rows(net, sets) == len(sets)

    def test_parallel_branches(self, case14):
        net = case14
        twin = net.branches[0]
        net.add_branch(
            twin.from_bus, twin.to_bus, r_pu=twin.r_pu, x_pu=twin.x_pu,
            b_pu=twin.b_pu, rate_a_mva=twin.rate_a_mva,
        )
        new = net.n_branch - 1
        # Either twin alone, both together, and each with a third branch.
        sets = [(0,), (new,), (0, new), (0, 3), (new, 3)]
        assert _assert_kernel_rows(net, sets) == len(sets)

    def test_two_edge_cut_pair_is_islanded(self, case14):
        net = case14
        bridges = gridgraph.bridge_branches(net)
        ids = [b for b in net.in_service_branch_ids() if b not in bridges]
        cut = next(
            pair for pair in itertools.combinations(ids, 2)
            if not gridgraph.is_connected(net, set(pair))
        )
        sol = AcKernel(net).solve_outages([cut])
        assert sol.rows == [None] and sol.reasons == ["islanded"]
        scns = [Scenario(name="cut", perturbations=tuple(BranchOutage(b) for b in cut))]
        warm = BatchStudyRunner(analysis="powerflow").run(net, scns)
        cold = BatchStudyRunner(analysis="powerflow", ac_mode="cold").run(net, scns)
        assert _zero_times(warm) == _zero_times(cold)
        assert "islands the network" in warm.results[0].error

    def test_ieee57_fd_stall_hands_back_scalar_record(self, case57):
        sol = AcKernel(case57).solve_outages([(IEEE57_FD_STALL,)])
        assert sol.rows == [None] and sol.reasons == ["fd-stalled"]
        fast = run_n_minus_1(case57, branch_ids=[IEEE57_FD_STALL]).outcomes[0]
        slow = _scalar_outcomes(case57, [IEEE57_FD_STALL])[0]
        assert fast.method == "newton" and fast.converged
        assert _no_time(fast) == _no_time(slow)
        assert fast.max_loading_percent == pytest.approx(164.47, abs=0.5)

    def test_stall_guard_not_sweep_cap_hands_back_drifting_rows(
        self, case57, monkeypatch
    ):
        # With the cap lifted, FD on branch 38 would converge to the far
        # solution (556% loading) after ~110 sweeps; the contraction guard
        # must hand it back long before, on its own.
        monkeypatch.setattr(ac_batch, "OUTAGE_MAX_SWEEPS", 1000)
        kernel = AcKernel(case57)
        ids = case57.in_service_branch_ids()
        pairs = [(IEEE57_FD_STALL, b) for b in ids[:8] if b != IEEE57_FD_STALL]
        sol = kernel.solve_outages([(IEEE57_FD_STALL,), *pairs])
        assert sol.reasons[0] == "fd-stalled"
        for pair, reason in zip(pairs, sol.reasons[1:]):
            split = not gridgraph.is_connected(case57, set(pair))
            assert reason == ("islanded" if split else "fd-stalled"), pair
        # Every row the kernel still serves lands where Newton does.
        _assert_kernel_rows(case57, [(b,) for b in ids], kernel=kernel)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_outage_pairs_property(self, data):
        name = data.draw(st.sampled_from(["ieee14", "ieee30"]))
        net = _shared_case(name)
        ids = net.in_service_branch_ids()
        pair = data.draw(
            st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        )
        _assert_kernel_rows(net, [tuple(pair)], kernel=_shared_kernel(name))


@functools.lru_cache(maxsize=None)
def _shared_kernel(name):
    return AcKernel(_shared_case(name))


# ----------------------------------------------------------------------
# the N-1 sweep
# ----------------------------------------------------------------------


class TestNMinus1Sweep:
    @pytest.mark.parametrize("case_name", ["ieee14", "ieee30", "ieee57", "ieee118"])
    def test_sweep_matches_scalar_outcomes(self, case_name):
        net = load_case(case_name)
        report = run_n_minus_1(net)
        slow = _scalar_outcomes(net, [o.branch_id for o in report.outcomes])
        for fast, ref in zip(report.outcomes, slow):
            _assert_outcome_parity(fast, ref)
        assert sum(o.method == "fdpf-xb" for o in report.outcomes) > 0.9 * len(slow)

    def test_sweep_counts_and_tags_handoffs(self, case14, fresh_metrics):
        version = case14.version
        bridges = gridgraph.bridge_branches(case14)
        with tracing() as tracer:
            report = run_n_minus_1(case14)
        assert case14.version == version
        served = sum(o.method == "fdpf-xb" for o in report.outcomes)
        assert served == report.n_contingencies - len(bridges)
        outage_solves = fresh_metrics.counter("gridmind_ac_outage_solves_total")
        assert outage_solves.value(path="n-1") == served
        assert _fallbacks(fresh_metrics, path="n-1", reason="islanded") == len(bridges)
        spans = tracer.spans()
        (chunk,) = [s for s in spans if s.name == "chunk.ac_batch"]
        assert chunk.tags["fallbacks"] == {"islanded": len(bridges)}
        # Bridges need no solve: the base case is the sweep's only Newton.
        assert len([s for s in spans if s.name == "solve.newton"]) == 1

    def test_build_error_is_logged_and_falls_back(
        self, case14, fresh_metrics, monkeypatch, caplog
    ):
        class Broken(AcKernel):
            def solve_outages(self, outages, **kw):
                raise RuntimeError("boom")

        monkeypatch.setattr(nminus1, "AcKernel", Broken)
        with caplog.at_level(logging.ERROR, logger="repro.contingency.nminus1"):
            report = run_n_minus_1(case14)
        slow = _scalar_outcomes(case14, [o.branch_id for o in report.outcomes])
        assert [_no_time(o) for o in report.outcomes] == [_no_time(o) for o in slow]
        assert _fallbacks(fresh_metrics, path="n-1", reason="build-error") == len(slow)
        assert any(r.exc_info for r in caplog.records)


# ----------------------------------------------------------------------
# outage studies through the runner
# ----------------------------------------------------------------------


class TestOutageStudies:
    def test_warm_n2_matches_cold_across_dispatch(self, case30):
        scns = outage_combinations(case30, depth=2, limit=60)
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            serial = BatchStudyRunner(analysis="powerflow", n_jobs=1).run(case30, scns)
            pooled = BatchStudyRunner(analysis="powerflow", n_jobs=2).run(case30, scns)
            with StudyExecutor(max_workers=2) as executor:
                shared = BatchStudyRunner(
                    analysis="powerflow", executor=executor
                ).run(case30, scns)
            warm_solves = registry.counter("gridmind_ac_outage_solves_total").total()
            cold_registry = MetricsRegistry()
            set_metrics(cold_registry)
            cold = BatchStudyRunner(analysis="powerflow", ac_mode="cold").run(
                case30, scns
            )
        finally:
            set_metrics(previous)
        assert _zero_times(serial) == _zero_times(pooled) == _zero_times(shared)
        _assert_record_parity(serial, cold)
        assert warm_solves >= 3 * 55
        assert cold_registry.counter("gridmind_ac_outage_solves_total").total() == 0
        assert cold_registry.counter("gridmind_fastpath_fallbacks_total").total() == 0

    def test_mixed_chunk_keeps_order_and_scalar_records(self, case14):
        n = case14.n_branch
        case14.set_branch_status(5, False)
        scns = [
            Scenario(name="pair", perturbations=(BranchOutage(0), BranchOutage(3))),
            Scenario(name="load", perturbations=(UniformLoadScale(1.05),)),
            Scenario(name="gen", perturbations=(GeneratorOutage(1),)),
            Scenario(name="missing", perturbations=(BranchOutage(n + 4),)),
            Scenario(name="already-out", perturbations=(BranchOutage(5), BranchOutage(2))),
            Scenario(name="single", perturbations=(BranchOutage(7),)),
        ]
        warm = BatchStudyRunner(analysis="powerflow", chunk_size=6).run(case14, scns)
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=6, ac_mode="cold"
        ).run(case14, scns)
        assert [r.name for r in warm.results] == [s.name for s in scns]
        _assert_record_parity(warm, cold)
        assert warm.results[3].error == cold.results[3].error
        assert "does not exist" in warm.results[3].error


# ----------------------------------------------------------------------
# no silent degradation
# ----------------------------------------------------------------------


class TestFallbackAccounting:
    @pytest.mark.parametrize("case_name", ["ieee14", "ieee57"])
    def test_monte_carlo_ensembles_never_fall_back(self, case_name, fresh_metrics):
        net = load_case(case_name)
        scns = monte_carlo_ensemble(n=16, sigma=0.05, seed=5)
        for analysis in ("powerflow", "dc", "screening"):
            study = BatchStudyRunner(analysis=analysis, ac_budget=4).run(net, scns)
            assert all(r.converged for r in study.results)
        # Only screening's AC-verify sweeps may hand rows back, and only
        # for the physics (a bridge, the ieee57 FD-stall outage): any
        # other handoff would be a fast path silently degrading.
        counter = fresh_metrics.counter("gridmind_fastpath_fallbacks_total")
        expected = sum(
            counter.value(path="n-1", reason=r) for r in ("islanded", "fd-stalled")
        )
        assert counter.total() == expected

    def test_disconnected_base_is_counted_and_tagged(self, tiny_net, fresh_metrics):
        tiny_net.add_bus()  # an isolated bus: the base itself is split
        scns = monte_carlo_ensemble(n=3, sigma=0.02, seed=1)
        with tracing() as tracer:
            study = BatchStudyRunner(analysis="powerflow", chunk_size=3).run(
                tiny_net, scns
            )
        assert not any(r.converged for r in study.results)
        assert _fallbacks(fresh_metrics, path="ac", reason="disconnected-base") == 3
        (chunk,) = [s for s in tracer.spans() if s.name == "chunk.ac_batch"]
        assert chunk.tags["fallbacks"] == {"disconnected-base": 3}

    def test_ac_build_error_is_logged_and_falls_back(
        self, case14, fresh_metrics, monkeypatch, caplog
    ):
        def broken(self, net):
            raise RuntimeError("boom")

        monkeypatch.setattr(_WorkerState, "ac_kernel_for", broken)
        scns = list(monte_carlo_ensemble(n=4, sigma=0.05, seed=2))
        scns.append(Scenario(name="out", perturbations=(BranchOutage(3),)))
        with caplog.at_level(logging.ERROR, logger="repro.scenarios.runner"):
            warm = BatchStudyRunner(analysis="powerflow").run(case14, scns)
        cold = BatchStudyRunner(analysis="powerflow", ac_mode="cold").run(case14, scns)
        assert _zero_times(warm) == _zero_times(cold)
        assert _fallbacks(fresh_metrics, path="ac", reason="build-error") == 4
        assert _fallbacks(fresh_metrics, path="outage", reason="build-error") == 1
        assert any(r.exc_info for r in caplog.records)
