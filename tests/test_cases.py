"""Case registry, Table 2 component counts and golden case digests."""

import hashlib
import json

import pytest

from repro.grid.io import to_matpower
from repro.grid.cases import (
    TABLE2_COUNTS,
    available_cases,
    build_synthetic,
    canonical_case_name,
    case_inventory,
    load_case,
)


@pytest.mark.parametrize("name", list(TABLE2_COUNTS))
def test_table2_counts_exact(name):
    """Every paper case matches Table 2's component counts exactly."""
    nb, ng, nl, nline, ntr = TABLE2_COUNTS[name]
    net = load_case(name)
    assert net.n_bus == nb
    assert net.n_gen == ng
    assert net.n_load == nl
    assert net.n_line == nline
    assert net.n_transformer == ntr


#: sha256 of each synthetic case's sorted-key MATPOWER JSON, recorded at
#: commit 0858f6d.  The calibration runs hundreds of scalar power flows
#: and sizes shunts from their voltages, so a solver whose results move
#: by one last bit shows up here as a different case.
GOLDEN_CASE_DIGESTS = {
    "ieee30": "942968de3d4aea5b38f463e2a46db8e5be0cc8ebae22ad85cc1fdc4639288f80",
    "ieee57": "471863d5659d9025c1e8f1f4a2cc4cf9379d1727e609c43daa0004c2b22bf8bf",
    "ieee118": "8607f4a10c54e8d3370db108f421c8bd5b3aeed365e2592147ce4c4fbd8bd67a",
    "ieee300": "5a43d8fa0170b1a57d173d4b9a53fed5c1e84ca8788b80fac6c309e5e9e026f7",
}


@pytest.mark.parametrize("name", list(GOLDEN_CASE_DIGESTS))
def test_synthetic_case_is_byte_identical(name):
    text = json.dumps(to_matpower(load_case(name)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CASE_DIGESTS[name]


def test_case_inventory_covers_all_paper_cases():
    inv = case_inventory()
    assert [row["case"] for row in inv] == list(TABLE2_COUNTS)


@pytest.mark.parametrize(
    "spelling",
    ["ieee118", "IEEE 118", "case118", "118-bus", "the 118 bus system", "118"],
)
def test_canonical_case_name_spellings(spelling):
    assert canonical_case_name(spelling) == "ieee118"


def test_canonical_case_name_unknown():
    assert canonical_case_name("ieee9999") is None
    assert canonical_case_name("hello") is None


def test_load_case_returns_fresh_copies():
    a = load_case("ieee14")
    b = load_case("ieee14")
    a.set_load(1, 999.0)
    assert b.loads_at_bus(1)[0].pd_mw != 999.0


def test_load_case_unknown_raises():
    with pytest.raises(KeyError, match="available"):
        load_case("ieee9999")


def test_available_cases_sorted():
    cases = available_cases()
    assert "ieee14" in cases and "ieee300" in cases


def test_ieee14_is_genuine_data(case14):
    """Spot-check embedded values against the published case."""
    assert case14.base_mva == 100.0
    # Bus 9 (index 8) carries the 19 MVAr shunt.
    assert case14.buses[8].bs_mvar == pytest.approx(19.0)
    # Gen 1 cost coefficients.
    assert case14.gens[0].cost_coeffs[0] == pytest.approx(0.0430292599)
    # Branch 1-2 impedance.
    assert case14.branches[0].r_pu == pytest.approx(0.01938)
    assert case14.branches[0].x_pu == pytest.approx(0.05917)


def test_synthetic_generator_small_case_solves():
    """The live generation path (not the snapshot) produces a solvable net."""
    from repro.powerflow import solve_newton

    net = build_synthetic(
        "test-tiny", n_bus=12, n_gen=3, n_load=8, n_line=14, n_trafo=2,
        mean_load_mw=10.0,
    )
    assert net.n_bus == 12
    assert net.n_line == 14
    assert net.n_transformer == 2
    res = solve_newton(net)
    assert res.converged
    assert res.min_voltage_pu > 0.9


def test_synthetic_generator_is_deterministic():
    a = build_synthetic("det-check", 10, 2, 6, 12, 1, mean_load_mw=8.0)
    b = build_synthetic("det-check", 10, 2, 6, 12, 1, mean_load_mw=8.0)
    from repro.contingency.cache import network_content_hash

    assert network_content_hash(a) == network_content_hash(b)


def test_synthetic_generator_rejects_underconnected():
    with pytest.raises(ValueError, match="edges"):
        build_synthetic("bad", n_bus=10, n_gen=2, n_load=5, n_line=5, n_trafo=2)


def test_synthetic_ratings_are_set(case118):
    assert all(br.rate_a_mva > 0 for br in case118.branches)


def test_snapshot_load_matches_table2_loads(case118):
    # Calibration shaves loads but keeps them realistic for the scale.
    assert 2000.0 < case118.total_load_mw() < 6000.0


@pytest.mark.parametrize(
    "spelling",
    [
        "IEEE-118", "Case 118", "the 118-bus system", "ieee_118",
        "IEEE 118 bus network", "118 bus", "case_118",
    ],
)
def test_canonical_case_name_more_spellings(spelling):
    """Conversational variants all resolve to the registry key."""
    assert canonical_case_name(spelling) == "ieee118"


@pytest.mark.parametrize("name", list(TABLE2_COUNTS))
def test_canonical_case_name_identity(name):
    assert canonical_case_name(name) == name


def test_canonical_case_name_number_without_registry_match():
    """Numbers that parse but match no registered case return None."""
    assert canonical_case_name("ieee 42") is None
    assert canonical_case_name("9999-bus") is None


class TestFreshCopyIsolation:
    """Mutations through any API must never leak into the next load_case."""

    def test_load_mutation_does_not_leak(self):
        a = load_case("ieee14")
        baseline = a.total_load_mw()
        a.scale_loads(3.0)
        assert load_case("ieee14").total_load_mw() == pytest.approx(baseline)

    def test_topology_mutation_does_not_leak(self):
        a = load_case("ieee14")
        a.set_branch_status(0, False)
        a.gens[0].in_service = False
        b = load_case("ieee14")
        assert b.branches[0].in_service
        assert b.gens[0].in_service

    def test_added_components_do_not_leak(self):
        a = load_case("ieee14")
        n_loads = a.n_load
        a.add_load(2, pd_mw=10.0)
        assert load_case("ieee14").n_load == n_loads

    def test_alias_loads_are_independent(self):
        a = load_case("IEEE 14")
        b = load_case("case14")
        a.set_load(1, 777.0)
        assert sum(ld.pd_mw for ld in b.loads_at_bus(1)) != 777.0

    def test_scenario_realization_does_not_leak(self):
        from repro.scenarios import Scenario, UniformLoadScale

        a = load_case("ieee14")
        Scenario("s", (UniformLoadScale(2.0),)).realize(a)
        assert load_case("ieee14").total_load_mw() == pytest.approx(
            a.total_load_mw()
        )
