"""N-1 engine: outcomes, islanding, warm starts, parallel sweep."""

import pytest

from repro.contingency import (
    BALANCED_WEIGHTS,
    THERMAL_WEIGHTS,
    ContingencyOutcome,
    SeverityWeights,
    analyze_single_outage,
    run_n_minus_1,
)
from repro.powerflow import solve_newton


class TestSingleOutage:
    def test_islanding_detected(self, radial_net):
        out = analyze_single_outage(radial_net, 1)
        assert out.islanded
        assert not out.converged
        assert out.stranded_load_mw == pytest.approx(20.0)

    def test_meshed_outage_converges(self, tiny_net):
        out = analyze_single_outage(tiny_net, 0)
        assert out.converged
        assert not out.islanded
        assert out.max_loading_percent > 0

    def test_network_restored_after_analysis(self, tiny_net):
        analyze_single_outage(tiny_net, 0)
        assert tiny_net.branches[0].in_service

    def test_out_of_service_branch_rejected(self, tiny_net):
        tiny_net.set_branch_status(0, False)
        with pytest.raises(ValueError, match="already out of service"):
            analyze_single_outage(tiny_net, 0)

    def test_overloads_recorded(self, case118):
        # Find an outage known to overload (use the sweep's worst).
        rep = run_n_minus_1(case118)
        worst = max(
            (o for o in rep.outcomes if o.converged and not o.islanded),
            key=lambda o: o.max_loading_percent,
        )
        redo = analyze_single_outage(case118, worst.branch_id)
        assert redo.max_loading_percent == pytest.approx(
            worst.max_loading_percent, rel=1e-6
        )
        assert redo.overloads


class TestSweep:
    def test_sweep_covers_all_branches(self, case30):
        rep = run_n_minus_1(case30)
        assert rep.n_contingencies == case30.n_branch
        ids = sorted(o.branch_id for o in rep.outcomes)
        assert ids == list(range(case30.n_branch))

    def test_sweep_leaves_network_untouched(self, case30):
        before = [br.in_service for br in case30.branches]
        v_before = case30.version
        run_n_minus_1(case30)
        assert [br.in_service for br in case30.branches] == before
        assert case30.version == v_before

    def test_sweep_subset(self, case30):
        rep = run_n_minus_1(case30, branch_ids=[0, 5, 7])
        assert rep.n_contingencies == 3
        assert sorted(o.branch_id for o in rep.outcomes) == [0, 5, 7]

    def test_base_required_to_converge(self, case30):
        case30.scale_loads(20.0)
        with pytest.raises(ValueError, match="base case"):
            run_n_minus_1(case30)

    def test_max_overload_in_calibrated_band(self, case118):
        """Synthetic cases are designed for worst overloads in 110-170 %."""
        rep = run_n_minus_1(case118)
        assert 110.0 <= rep.max_overload_percent <= 175.0

    def test_worst_returns_most_severe(self, case118):
        rep = run_n_minus_1(case118)
        worst = rep.worst(3)
        sevs = [o.severity() for o in worst]
        assert sevs == sorted(sevs, reverse=True)

    def test_base_result_reuse(self, case30):
        base = solve_newton(case30)
        rep = run_n_minus_1(case30, base_result=base)
        assert rep.base is base


class TestSeverity:
    def _outcome(self, **kw) -> ContingencyOutcome:
        defaults = dict(
            branch_id=0, branch_name="b", from_bus=0, to_bus=1,
            is_transformer=False, converged=True,
        )
        defaults.update(kw)
        return ContingencyOutcome(**defaults)

    def test_secure_outcome_zero_severity(self):
        assert self._outcome().severity() == 0.0

    def test_overload_raises_severity(self):
        o = self._outcome(overloads=[(5, 120.0)], max_loading_percent=120.0)
        assert o.severity() > 0

    def test_more_overloads_more_severe(self):
        one = self._outcome(overloads=[(5, 120.0)])
        two = self._outcome(overloads=[(5, 120.0), (6, 115.0)])
        assert two.severity() > one.severity()

    def test_islanding_with_load_dominates(self):
        isl = self._outcome(converged=False, islanded=True, stranded_load_mw=50.0)
        thermal = self._outcome(overloads=[(5, 150.0)])
        assert isl.severity() > thermal.severity()

    def test_islanding_without_load_is_minor(self):
        isl = self._outcome(converged=False, islanded=True, stranded_load_mw=0.0)
        thermal = self._outcome(overloads=[(5, 150.0)])
        assert isl.severity() < thermal.severity()

    def test_divergence_is_severe(self):
        div = self._outcome(converged=False)
        thermal = self._outcome(overloads=[(5, 150.0)])
        assert div.severity() > thermal.severity()

    def test_voltage_violations_scored(self):
        o = self._outcome(voltage_violations=[(3, 0.90)], min_voltage_pu=0.90)
        assert o.severity() > 0

    def test_weights_change_ordering(self):
        thermal_heavy = self._outcome(
            overloads=[(1, 130.0), (2, 125.0)], max_loading_percent=130.0
        )
        voltage_heavy = self._outcome(
            voltage_violations=[(1, 0.90), (2, 0.91)], min_voltage_pu=0.90
        )
        assert (
            thermal_heavy.severity(THERMAL_WEIGHTS)
            > voltage_heavy.severity(THERMAL_WEIGHTS)
        )
        assert (
            voltage_heavy.severity(BALANCED_WEIGHTS)
            > voltage_heavy.severity(THERMAL_WEIGHTS)
        )

    def test_summary_line_mentions_islanding(self):
        o = self._outcome(converged=False, islanded=True, stranded_load_mw=12.0)
        assert "islands" in o.summary_line()
        assert "12.0 MW" in o.summary_line()

    def test_summary_line_secure(self):
        assert "secure" in self._outcome().summary_line()

    def test_custom_weights_describe(self):
        w = SeverityWeights(thermal=5.0)
        assert "x5" in w.describe()
