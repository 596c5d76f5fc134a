"""Property-based tests (hypothesis) on core invariants.

Targets: per-unit conversions, cost polynomials, network mutation
invariants, admittance structure, the injection replay's bit-identity
with realize+compile, severity monotonicity, NLU robustness, token
estimation, and the audit's soundness guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contingency.outcomes import BALANCED_WEIGHTS, ContingencyOutcome
from repro.grid import units
from repro.grid.cases import load_case
from repro.grid.components import BusType, Generator
from repro.grid.network import Network
from repro.grid.ybus import build_admittances
from repro.instrumentation.audit import audit_narration
from repro.llm.nlu import classify, extract_entities
from repro.llm.tokens import estimate_text_tokens
from repro.opf.costs import PolynomialCosts
from repro.powerflow.batch import dc_injections
from repro.powerflow.newton import bus_power_injections
from repro.scenarios.spec import (
    GaussianLoadNoise,
    PerBusLoadScale,
    RenewableInjection,
    Scenario,
    UniformLoadScale,
    ZonalLoadScale,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


@given(mw=finite, base=st.floats(min_value=1.0, max_value=1000.0))
def test_pu_roundtrip(mw, base):
    assert units.pu_to_mw(units.mw_to_pu(mw, base), base) == np.float64(mw) or abs(
        units.pu_to_mw(units.mw_to_pu(mw, base), base) - mw
    ) < 1e-6 * max(1.0, abs(mw))


@given(deg=finite)
def test_angle_roundtrip(deg):
    assert abs(units.rad_to_deg(units.deg_to_rad(deg)) - deg) < 1e-9 * max(1.0, abs(deg))


@given(
    c2=st.floats(min_value=0.0, max_value=1.0),
    c1=st.floats(min_value=0.0, max_value=100.0),
    c0=st.floats(min_value=0.0, max_value=1000.0),
    p=st.floats(min_value=0.0, max_value=500.0),
)
def test_generator_cost_matches_polyval(c2, c1, c0, p):
    gen = Generator(bus=0, cost_coeffs=(c2, c1, c0))
    expected = c2 * p * p + c1 * p + c0
    assert abs(gen.cost_at(p) - expected) < 1e-6 * max(1.0, expected)


@given(
    c2=st.floats(min_value=1e-4, max_value=1.0),
    c1=st.floats(min_value=0.0, max_value=100.0),
    pa=st.floats(min_value=0.0, max_value=4.0),
    pb=st.floats(min_value=0.0, max_value=4.0),
)
def test_convex_cost_gradient_monotone(c2, c1, pa, pb):
    """Convex quadratic => gradient is monotone in dispatch."""
    costs = PolynomialCosts([(c2, c1, 0.0)], base_mva=100.0)
    ga = costs.gradient(np.array([pa]))[0]
    gb = costs.gradient(np.array([pb]))[0]
    if pa < pb:
        assert ga <= gb + 1e-9
    assert costs.is_convex()


@given(scale=st.floats(min_value=0.0, max_value=5.0))
def test_scale_loads_scales_total(scale):
    net = Network()
    net.add_bus(bus_type=BusType.SLACK)
    net.buses[0].bus_type = BusType.SLACK
    net.add_bus()
    net.add_branch(0, 1, x_pu=0.1)
    net.add_load(1, pd_mw=50.0, qd_mvar=10.0)
    before = net.total_load_mw()
    net.scale_loads(scale)
    assert abs(net.total_load_mw() - before * scale) < 1e-9 * max(1.0, before * scale)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(min_value=0.01, max_value=0.5),
    r=st.floats(min_value=0.0, max_value=0.2),
    b=st.floats(min_value=0.0, max_value=0.3),
    tap=st.floats(min_value=0.9, max_value=1.1),
)
def test_ybus_row_sums_equal_shunt_terms(x, r, b, tap):
    """For a single branch, Ybus entries follow the pi-model identities."""
    net = Network()
    net.add_bus(bus_type=BusType.SLACK)
    net.buses[0].bus_type = BusType.SLACK
    net.add_bus()
    net.add_branch(0, 1, r_pu=r, x_pu=x, b_pu=b, tap=tap, is_transformer=True)
    y = build_admittances(net.compile()).ybus.toarray()
    ys = 1.0 / (r + 1j * x)
    assert np.isclose(y[1, 1], ys + 1j * b / 2)
    assert np.isclose(y[0, 0], (ys + 1j * b / 2) / tap**2)
    assert np.isclose(y[0, 1], -ys / tap)


# ----------------------------------------------------------------------
# Injection replay: ``Scenario.injection_vector`` / ``ac_injection`` must
# give, bit for bit, what realizing the scenario and compiling it gives.
# ----------------------------------------------------------------------
factor = st.floats(min_value=0.0, max_value=2.0)


def _injection_perturbation(n_bus: int):
    bus = st.integers(min_value=0, max_value=n_bus - 1)
    return st.one_of(
        st.builds(UniformLoadScale, factor),
        st.builds(
            PerBusLoadScale,
            st.lists(st.tuples(bus, factor), min_size=1, max_size=4).map(tuple),
        ),
        st.builds(
            GaussianLoadNoise,
            st.floats(min_value=0.0, max_value=0.3),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        st.builds(
            ZonalLoadScale, st.lists(factor, min_size=1, max_size=5).map(tuple)
        ),
        st.builds(
            RenewableInjection,
            bus,
            st.floats(min_value=0.0, max_value=150.0),
            st.floats(min_value=0.0, max_value=40.0),
        ),
    )


def _stacks(n_bus: int, max_size: int = 4):
    """Scenarios of injection-only perturbations, types in random order."""
    return st.lists(
        st.lists(_injection_perturbation(n_bus), max_size=5).map(tuple),
        min_size=1,
        max_size=max_size,
    )


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, as they should."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )


def _assert_replay_exact(base: Network, perturbations) -> None:
    scenario = Scenario("draw", perturbations)
    arr = scenario.realize(base).compile()
    assert _same_bits(scenario.injection_vector(base), dc_injections(arr))
    sbus, pd, qd = scenario.ac_injection(base)
    assert _same_bits(sbus, bus_power_injections(arr))
    assert _same_bits(pd, arr.pd)
    assert _same_bits(qd, arr.qd)


#: Examples per case: ieee118's realize+compile is the slowest reference.
REPLAY_EXAMPLES = {"ieee14": 40, "ieee57": 15, "ieee118": 5}


@pytest.mark.parametrize("case", REPLAY_EXAMPLES)
def test_injection_replay_matches_realize_compile(case):
    """Scenarios replayed back to back on one shared base each equal
    realize+compile: a replay that edited the base's cached load table
    in place would move every later scenario of the example (and of the
    examples after it)."""
    base = load_case(case)

    @settings(max_examples=REPLAY_EXAMPLES[case], deadline=None)
    @given(stacks=_stacks(base.n_bus))
    def check(stacks):
        for perturbations in stacks:
            _assert_replay_exact(base, perturbations)

    check()


EDITS = ("set_load", "scale_loads", "touch", "branch")


@settings(max_examples=40, deadline=None)
@given(
    stacks=_stacks(14, max_size=2),
    edit=st.sampled_from(EDITS),
    row=st.integers(min_value=0, max_value=10),
    value=st.floats(min_value=0.0, max_value=80.0),
)
def test_injection_replay_follows_base_edits(stacks, edit, row, value):
    """An edit to the base after a compile and a replay reaches the next
    replay: the cached load table belongs to one network version."""
    base = load_case("ieee14")
    base.compile()
    base.admittances()  # a complete snapshot: a branch switch derives from it
    for perturbations in stacks:
        _assert_replay_exact(base, perturbations)
    load = base.loads[row % len(base.loads)]
    if edit == "set_load":
        base.set_load(load.bus, value)
    elif edit == "scale_loads":
        base.scale_loads(value / 40.0)
    elif edit == "touch":
        load.pd_mw, load.qd_mvar = value, -value / 4.0  # out of band
        base.touch()
    else:
        branch = row % base.n_branch
        base.set_branch_status(branch, False)
        base.compile()
        for perturbations in stacks:
            _assert_replay_exact(base, perturbations)
        base.set_branch_status(branch, True)
    for perturbations in stacks:
        _assert_replay_exact(base, perturbations)


@given(
    loading=st.lists(
        st.floats(min_value=100.1, max_value=300.0), min_size=1, max_size=6
    )
)
def test_severity_monotone_in_overloads(loading):
    """Adding one more overload never decreases severity."""
    base = ContingencyOutcome(
        branch_id=0, branch_name="b", from_bus=0, to_bus=1,
        is_transformer=False, converged=True,
        overloads=[(i, pct) for i, pct in enumerate(loading)],
    )
    more = ContingencyOutcome(
        branch_id=0, branch_name="b", from_bus=0, to_bus=1,
        is_transformer=False, converged=True,
        overloads=[(i, pct) for i, pct in enumerate(loading)] + [(99, 150.0)],
    )
    assert more.severity(BALANCED_WEIGHTS) >= base.severity(BALANCED_WEIGHTS)


@given(text=st.text(max_size=200))
def test_nlu_never_crashes(text):
    parsed = classify(text)
    assert parsed.intent is not None
    extract_entities(text)


@given(bus=st.integers(min_value=0, max_value=9999),
       mw=st.floats(min_value=0.1, max_value=9999.0))
def test_nlu_extracts_planted_entities(bus, mw):
    ents = extract_entities(f"set the load at bus {bus} to {mw:.1f} MW")
    assert ents["bus"] == bus
    assert abs(ents["mw"] - round(mw, 1)) < 1e-9


@given(text=st.text(max_size=500))
def test_token_estimate_nonnegative_and_monotone(text):
    n = estimate_text_tokens(text)
    assert n >= 0
    assert estimate_text_tokens(text + " more words here") >= n


@given(
    value=st.floats(min_value=500.0, max_value=1e6, allow_nan=False),
)
def test_audit_grounds_exact_payload_values(value):
    """Any number present in a payload is never flagged as a slip."""
    value = round(value, 2)
    result = audit_narration(f"the figure is {value:.2f}", [{"v": value}])
    assert result.ok


@given(st.data())
def test_audit_flags_unrelated_large_numbers(data):
    payload_value = data.draw(st.floats(min_value=1000.0, max_value=2000.0))
    fabricated = data.draw(st.floats(min_value=500000.0, max_value=900000.0))
    result = audit_narration(
        f"the figure is {fabricated:.2f}", [{"v": round(payload_value, 4)}]
    )
    assert not result.ok
