"""Scenario engine: specs, generators, batch runner, aggregation."""

import pytest

from repro.scenarios import (
    BatchStudyRunner,
    BranchOutage,
    GaussianLoadNoise,
    GeneratorOutage,
    PerBusLoadScale,
    RenewableInjection,
    Scenario,
    ScenarioError,
    UniformLoadScale,
    aggregate_study,
    daily_profile,
    load_sweep,
    monte_carlo_ensemble,
    outage_combinations,
    with_branch_outage,
)


class TestSpec:
    def test_realize_leaves_base_untouched(self, case14):
        before = case14.total_load_mw()
        version = case14.version
        scn = Scenario("s", (UniformLoadScale(1.5), BranchOutage(0)))
        net = scn.realize(case14)
        assert case14.total_load_mw() == before
        assert case14.version == version
        assert case14.branches[0].in_service
        assert net.total_load_mw() == pytest.approx(1.5 * before)
        assert not net.branches[0].in_service

    def test_per_bus_scale(self, case14):
        scn = Scenario("s", (PerBusLoadScale(((2, 2.0),)),))
        net = scn.realize(case14)
        base_at_2 = sum(ld.pd_mw for ld in case14.loads_at_bus(2))
        assert sum(ld.pd_mw for ld in net.loads_at_bus(2)) == pytest.approx(
            2.0 * base_at_2
        )

    def test_gaussian_noise_same_seed_identical(self, case14):
        a = Scenario("a", (GaussianLoadNoise(0.1, seed=42),)).realize(case14)
        b = Scenario("b", (GaussianLoadNoise(0.1, seed=42),)).realize(case14)
        c = Scenario("c", (GaussianLoadNoise(0.1, seed=43),)).realize(case14)
        loads = lambda n: [ld.pd_mw for ld in n.loads]  # noqa: E731
        assert loads(a) == loads(b)
        assert loads(a) != loads(c)

    def test_generator_outage(self, case14):
        net = Scenario("s", (GeneratorOutage(1),)).realize(case14)
        assert not net.gens[1].in_service
        assert case14.gens[1].in_service

    def test_renewable_injection_is_negative_load(self, case14):
        before = case14.total_load_mw()
        net = Scenario("s", (RenewableInjection(5, 30.0),)).realize(case14)
        assert net.total_load_mw() == pytest.approx(before - 30.0)

    def test_bad_branch_raises_scenario_error(self, case14):
        with pytest.raises(ScenarioError, match="branch 999"):
            Scenario("s", (BranchOutage(999),)).realize(case14)

    def test_describe_mentions_every_perturbation(self):
        scn = Scenario("s", (UniformLoadScale(1.1), BranchOutage(3)))
        text = scn.describe()
        assert "x1.1" in text and "branch 3" in text


class TestGenerators:
    def test_load_sweep_factors(self):
        scns = load_sweep(0.8, 1.2, 5)
        assert [s.tags["scale"] for s in scns] == pytest.approx(
            [0.8, 0.9, 1.0, 1.1, 1.2]
        )
        assert scns[0].name == "sweep_080"

    def test_monte_carlo_same_seed_same_ensemble(self, case14):
        a = monte_carlo_ensemble(n=6, sigma=0.07, seed=5)
        b = monte_carlo_ensemble(n=6, sigma=0.07, seed=5)
        c = monte_carlo_ensemble(n=6, sigma=0.07, seed=6)
        totals = lambda scns: [  # noqa: E731
            s.realize(case14).total_load_mw() for s in scns
        ]
        assert totals(a) == totals(b)
        assert totals(a) != totals(c)

    def test_monte_carlo_draws_differ_within_ensemble(self, case14):
        scns = monte_carlo_ensemble(n=4, sigma=0.05, seed=0)
        totals = {round(s.realize(case14).total_load_mw(), 6) for s in scns}
        assert len(totals) == 4

    def test_outage_combinations_n2(self, case14):
        scns = outage_combinations(case14, depth=2, limit=10)
        assert len(scns) == 10
        assert all(len(s.perturbations) == 2 for s in scns)
        # Deterministic prefix of the lexicographic enumeration.
        again = outage_combinations(case14, depth=2, limit=10)
        assert [s.name for s in scns] == [s.name for s in again]

    def test_outage_combinations_full_count(self, case14):
        nb = len(case14.in_service_branch_ids())
        scns = outage_combinations(case14, depth=2)
        assert len(scns) == nb * (nb - 1) // 2

    def test_daily_profile_band(self):
        scns = daily_profile(steps=24, trough=0.6, peak=1.0)
        assert len(scns) == 24
        factors = [s.tags["scale"] for s in scns]
        assert min(factors) >= 0.6 - 1e-9
        assert max(factors) <= 1.0 + 1e-9
        # Trough in the early morning, peak in the afternoon.
        assert factors[4] == min(factors)
        assert factors[16] == max(factors)

    def test_with_branch_outage_composition(self):
        scns = with_branch_outage(load_sweep(0.9, 1.1, 3), branch_id=2)
        assert all(s.tags["outage_branch"] == 2 for s in scns)
        assert all(
            isinstance(s.perturbations[-1], BranchOutage) for s in scns
        )


class TestRunner:
    def test_powerflow_study_serial(self, case14):
        study = BatchStudyRunner(analysis="powerflow").run(
            case14, load_sweep(0.9, 1.1, 3)
        )
        assert study.n_scenarios == 3
        assert all(r.converged for r in study.results)
        agg = study.aggregate()
        assert agg.n_converged == 3
        assert agg.loading_stats is not None

    def test_result_order_matches_scenario_order(self, case14):
        scns = monte_carlo_ensemble(n=5, sigma=0.05, seed=2)
        study = BatchStudyRunner(analysis="powerflow").run(case14, scns)
        assert [r.name for r in study.results] == [s.name for s in scns]

    def test_dcopf_study_reports_costs(self, case14):
        study = BatchStudyRunner(analysis="dcopf").run(
            case14, load_sweep(0.9, 1.1, 3)
        )
        agg = study.aggregate()
        assert agg.cost_stats is not None
        # Cost grows with load: min at 90 %, max at 110 %.
        costs = [r.objective_cost for r in study.results]
        assert costs[0] < costs[1] < costs[2]

    def test_screening_study_ranks_criticals(self, case14):
        study = BatchStudyRunner(analysis="screening", ac_budget=6, top_n=3).run(
            case14, load_sweep(0.95, 1.05, 3)
        )
        assert all(r.critical_branches is not None for r in study.results)
        agg = study.aggregate()
        assert agg.rank_stability
        assert agg.stable_critical

    def test_unknown_analysis_raises(self, case14):
        with pytest.raises(ValueError, match="unknown analysis"):
            BatchStudyRunner(analysis="magic").run(case14, load_sweep(0.9, 1.1, 2))

    def test_scenario_error_is_captured_not_raised(self, case14):
        bad = Scenario("bad", (BranchOutage(999),))
        study = BatchStudyRunner(analysis="powerflow").run(
            case14, [*load_sweep(0.9, 1.1, 2), bad]
        )
        assert study.aggregate().n_errors == 1
        assert not study.results[-1].converged
        assert "branch 999" in study.results[-1].error

    def test_islanding_outage_combo_recorded_not_raised(self, case14):
        """An N-2 pair over a bridge must fail cleanly, not kill the batch."""
        from repro.grid import graph as gridgraph

        bridge = sorted(gridgraph.bridge_branches(case14))[0]
        other = next(
            b for b in case14.in_service_branch_ids() if b != bridge
        )
        scn = Scenario("island", (BranchOutage(bridge), BranchOutage(other)))
        study = BatchStudyRunner(analysis="powerflow").run(case14, [scn])
        assert not study.results[0].converged
        assert "islands the network" in study.results[0].error
        assert study.aggregate().n_errors == 1

    def test_serial_and_parallel_aggregates_identical(self, case14):
        scns = monte_carlo_ensemble(n=6, sigma=0.05, seed=9)
        serial = BatchStudyRunner(analysis="powerflow", n_jobs=1).run(case14, scns)
        parallel = BatchStudyRunner(analysis="powerflow", n_jobs=2).run(case14, scns)
        assert parallel.n_jobs == 2
        assert [r.name for r in serial.results] == [r.name for r in parallel.results]
        assert serial.aggregate().to_dict() == parallel.aggregate().to_dict()

    def test_pooled_run_leaves_no_workers_behind(self, case14):
        """The run's own executor shuts down on return and on raise."""
        import multiprocessing
        import os

        before = set(multiprocessing.active_children())
        scns = monte_carlo_ensemble(n=8, sigma=0.05, seed=9)
        runner = BatchStudyRunner(analysis="dc", n_jobs=2, chunk_size=2)
        runner.run(case14, scns)
        assert set(multiprocessing.active_children()) <= before

        pids = []

        def give_up(progress):
            pids.append(progress.worker_pid)
            raise RuntimeError("consumer gave up")

        with pytest.raises(RuntimeError, match="consumer gave up"):
            runner.run(case14, scns, progress=give_up)
        assert pids and pids[0] != os.getpid()  # a pool worker ran the chunk
        assert set(multiprocessing.active_children()) <= before

    def test_to_dict_is_json_ready(self, case14):
        import json

        study = BatchStudyRunner(analysis="powerflow").run(
            case14, load_sweep(0.9, 1.1, 2)
        )
        payload = json.loads(json.dumps(study.to_dict()))
        assert payload["n_scenarios"] == 2
        assert payload["aggregate"]["n_converged"] == 2


class TestAggregate:
    def test_empty_results(self):
        agg = aggregate_study([])
        assert agg.n_scenarios == 0
        assert agg.violation_rate == 0.0
        assert agg.cost_stats is None

    def test_rates_over_converged_only(self, case14):
        # A mix of stressed (overload-prone) and failed scenarios.
        from repro.scenarios.runner import ScenarioResult

        results = [
            ScenarioResult("a", {}, True, overloaded_branches=[1, 2]),
            ScenarioResult("b", {}, True),
            ScenarioResult("c", {}, False, error="diverged"),
        ]
        agg = aggregate_study(results)
        assert agg.n_converged == 2
        assert agg.n_errors == 1
        assert agg.overload_rate == pytest.approx(0.5)
        assert agg.branch_overload_freq == {1: 0.5, 2: 0.5}
