"""Outage snapshots derived from the base, kept admittances, and the
generation plan.

A network whose compiled arrays and admittances are both current derives
a one-branch outage's snapshot from them instead of rebuilding it (see
``Network.admittances`` and ``grid.ybus.outage_admittances``).  These
tests hold the derivation to *bit* equality with a rebuild on a fresh
copy, check that it engages on a scalar N-1 sweep, hold a load-only
edit's kept admittances (and an injection-only scenario's realized copy)
to the same equality, and hold the planned generator allocation to bit
equality with the per-bus loop it replaced.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.contingency.nminus1 import analyze_single_outage
from repro.grid import graph as gridgraph
from repro.grid import ybus
from repro.grid.cases import load_case
from repro.grid.components import BusType
from repro.grid.network import Network
from repro.powerflow.solution import (
    _allocate_generation,
    generation_plan,
    make_admittances,
)
from repro.scenarios.spec import (
    BranchOutage,
    GaussianLoadNoise,
    PerBusLoadScale,
    RenewableInjection,
    Scenario,
    UniformLoadScale,
    ZonalLoadScale,
)


def _hand_built() -> Network:
    """Five buses with every branch kind a derivation must sum right.

    Two same-direction parallels (0-1), a reversed parallel (2-1 against
    1-2), a tapped transformer, a phase shifter, a lossless (r = 0)
    transformer, a shunt-free leaf (bus 4: its outage leaves an all-zero
    diagonal) and a multi-unit slack bus.
    """
    net = Network()
    net.metadata.case_name = "hand5"
    for _ in range(5):
        net.add_bus()
    net.buses[0].bus_type = BusType.SLACK
    net.buses[2].bus_type = BusType.PV
    net.buses[1].bs_mvar = 12.0
    net.buses[3].gs_mw = 1.5
    net.add_gen(0, pg_mw=40.0, pmax_mw=200.0, qmin_mvar=-60, qmax_mvar=90)
    net.add_gen(0, pg_mw=25.0, pmax_mw=100.0, qmin_mvar=-20, qmax_mvar=30)
    net.add_gen(2, pg_mw=30.0, pmax_mw=90.0, qmin_mvar=-40, qmax_mvar=40)
    net.add_gen(2, pg_mw=10.0, pmax_mw=50.0, qmin_mvar=-10, qmax_mvar=25)
    net.add_load(1, pd_mw=60.0, qd_mvar=20.0)
    net.add_load(3, pd_mw=35.0, qd_mvar=9.0)
    net.add_load(4, pd_mw=5.0, qd_mvar=1.0)
    net.add_branch(0, 1, r_pu=0.02, x_pu=0.08, b_pu=0.02)
    net.add_branch(0, 1, r_pu=0.03, x_pu=0.09, b_pu=0.01)
    net.add_branch(1, 2, r_pu=0.01, x_pu=0.05, b_pu=0.03)
    net.add_branch(2, 1, r_pu=0.012, x_pu=0.06, b_pu=0.02)
    net.add_branch(1, 3, r_pu=0.005, x_pu=0.07, tap=0.97, is_transformer=True)
    net.add_branch(2, 3, r_pu=0.01, x_pu=0.1, shift_deg=4.0, tap=1.02,
                   is_transformer=True)
    net.add_branch(0, 3, r_pu=0.0, x_pu=0.11, tap=1.03, is_transformer=True)
    net.add_branch(3, 4, r_pu=0.02, x_pu=0.06, b_pu=0.004)
    return net


_NETS = {
    "ieee14": lambda: load_case("ieee14"),
    "ieee30": lambda: load_case("ieee30"),
    "ieee118": lambda: load_case("ieee118"),
    "hand5": _hand_built,
}


def _assert_arrays_bitwise(got, want) -> None:
    for f in dataclasses.fields(want):
        if f.name == "gen_plan":  # a memo, not part of the snapshot
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def _assert_admittances_bitwise(got, want) -> None:
    for name in ("ybus", "yf", "yt"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert a.indptr.dtype == b.indptr.dtype, name
        assert a.indptr.tobytes() == b.indptr.tobytes(), name
        assert a.indices.tobytes() == b.indices.tobytes(), name
        assert a.data.view(np.uint64).tobytes() == b.data.view(np.uint64).tobytes(), name


def _assert_matches_rebuild(net: Network) -> None:
    arr, adm = make_admittances(net)
    fresh = net.copy()
    arr_fresh = fresh.compile()
    _assert_arrays_bitwise(arr, arr_fresh)
    _assert_admittances_bitwise(adm, ybus.build_admittances(arr_fresh))


# One edit: ("out", k) / ("in", k) pick the k-th in-service / out-of-service
# branch (modulo their count), ("load", k) scales the k-th bus's load.
_edit = st.tuples(st.sampled_from(("out", "out", "in", "load")), st.integers(0, 10_000))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(_NETS)),
    edits=st.lists(st.tuples(_edit, st.booleans()), min_size=1, max_size=4),
)
def test_derived_snapshot_equals_rebuild(case, edits):
    """Outages (islanding ones too), restores, chains and an outage then a
    load edit: every snapshot equals a fresh copy's rebuild bit for bit.
    The flag says whether to solve-side materialise after the edit, so
    pending derivations get chained or thrown away too."""
    net = _NETS[case]()
    make_admittances(net)
    for (kind, k), materialise in edits:
        if kind == "load":
            bus = k % net.n_bus
            net.set_load(bus, 1.1 * sum(ld.pd_mw for ld in net.loads_at_bus(bus)))
        else:
            pool = [
                i for i, br in enumerate(net.branches)
                if br.in_service == (kind == "out")
            ]
            if not pool:
                continue
            net.set_branch_status(pool[k % len(pool)], kind == "in")
        if materialise:
            _assert_matches_rebuild(net)
    _assert_matches_rebuild(net)


def _no_rebuild(arr):
    raise AssertionError("a one-branch outage rebuilt its admittances")


@pytest.mark.parametrize("case", sorted(_NETS))
def test_every_single_outage_and_restore(case, monkeypatch):
    """Each branch out (derived, never rebuilt — parallels and islanding
    outages included) and back in (the parent itself)."""
    net = _NETS[case]()
    _, base_adm = make_admittances(net)
    for bid in range(net.n_branch):
        net.set_branch_status(bid, False)
        with monkeypatch.context() as patch:
            patch.setattr(ybus, "build_admittances", _no_rebuild)
            make_admittances(net)
        _assert_matches_rebuild(net)
        net.set_branch_status(bid, True)
        assert net.admittances() is base_adm
    _assert_matches_rebuild(net)


def test_islanding_outage_drops_the_zero_diagonal(case14):
    """Bus 8 (index 7) hangs off branch row 13 alone and has no shunt: its
    Ybus diagonal sums to exactly 0, and scipy stores no entry for it."""
    make_admittances(case14)
    case14.set_branch_status(13, False)
    _, adm = make_admittances(case14)
    lo, hi = adm.ybus.indptr[7], adm.ybus.indptr[8]
    assert lo == hi
    _assert_matches_rebuild(case14)


def test_any_other_edit_clears_the_lineage(case14):
    """A load edit after an outage rebuilds; the restore then rebuilds
    too instead of handing back the pre-outage parent."""
    _, base_adm = make_admittances(case14)
    case14.set_branch_status(3, False)
    case14.set_load(4, 55.0)
    case14.set_branch_status(3, True)
    assert case14.admittances() is not base_adm
    _assert_matches_rebuild(case14)


def test_scalar_sweep_builds_admittances_once(monkeypatch):
    """analyze_single_outage over every ieee30 branch on one copy: one full
    build (the base), every outage derived and every restore reused."""
    net = load_case("ieee30")
    net.touch()  # drop the admittances the copy carries from the case
    bridges = gridgraph.bridge_branches(net)
    builds = []
    real = ybus.build_admittances
    monkeypatch.setattr(
        ybus, "build_admittances", lambda arr: builds.append(1) or real(arr)
    )
    outcomes = [
        analyze_single_outage(net, bid, bridges=bridges)
        for bid in range(net.n_branch)
    ]
    assert len(outcomes) == net.n_branch
    assert sum(o.converged for o in outcomes) > net.n_branch // 2
    assert len(builds) == 1


# ----------------------------------------------------------------------
# load-only edits keep the admittances
# ----------------------------------------------------------------------

_INJECTION_ONLY = {
    "uniform": (UniformLoadScale(1.07),),
    "per_bus": (PerBusLoadScale(((1, 1.2), (3, 0.8), (1, 0.9))),),
    "gaussian": (GaussianLoadNoise(0.05, seed=3),),
    "zonal": (ZonalLoadScale((0.9, 1.1, 1.05)),),
    "renewable": (RenewableInjection(2, 12.0, 1.5), GaussianLoadNoise(0.02, seed=4)),
}


@pytest.mark.parametrize("name", sorted(_INJECTION_ONLY))
@pytest.mark.parametrize("case", sorted(_NETS))
def test_injection_only_realize_keeps_the_base_admittances(case, name):
    """The realized copy solves on the base's own (Ybus, Yf, Yt), and
    they are a fresh build's bits; its arrays match a rebuild too."""
    base = _NETS[case]()
    net = Scenario(name, _INJECTION_ONLY[name]).realize(base)
    assert net.admittances() is base.admittances()
    _assert_admittances_bitwise(net.admittances(), ybus.build_admittances(net.compile()))
    _assert_matches_rebuild(net)


@pytest.mark.parametrize("materialise", [False, True])
@pytest.mark.parametrize("edit", ["outage", "shunt", "scenario"])
def test_other_edits_after_a_load_edit_rebuild(case14, edit, materialise):
    """A topology or shunt edit after a load edit drops the kept
    admittances, whether or not the load edit's arrays were compiled."""
    base_adm = case14.admittances()
    case14.scale_loads(1.1)
    if materialise:
        make_admittances(case14)
    assert case14.admittances() is base_adm
    if edit == "outage":
        case14.set_branch_status(3, False)
    elif edit == "shunt":
        case14.buses[4].bs_mvar += 10.0
        case14.touch()
    else:
        case14 = Scenario("mixed", (UniformLoadScale(0.9), BranchOutage(3))).realize(
            case14
        )
    assert case14.admittances() is not base_adm
    _assert_matches_rebuild(case14)


def test_load_edit_still_moves_the_digest_and_load_table(case14):
    case14.admittances()
    digest, table = case14.content_hash(), case14.load_table()
    case14.set_load(4, 55.0)
    assert case14.content_hash() != digest
    assert case14.load_table()[1].tobytes() != table[1].tobytes()
    case14.add_load(6, pd_mw=3.0)
    assert len(case14.load_table()[0]) == len(table[0]) + 1


@settings(max_examples=40, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(0, 4), st.floats(0.0, 3.0, allow_nan=False)),
        min_size=1, max_size=8,
    )
)
def test_per_bus_scale_matches_the_per_bus_scan(factors):
    """One bus index per call multiplies every load exactly as one
    ``loads_at_bus`` scan per factor did, repeated buses included."""
    base = _hand_built()
    base.add_load(1, pd_mw=7.0, qd_mvar=2.0)  # a second load on bus 1
    want = base.copy()
    for bus, factor in factors:
        for ld in want.loads_at_bus(bus):
            ld.pd_mw *= factor
            ld.qd_mvar *= factor
    got = base.copy()
    PerBusLoadScale(tuple(factors)).apply(got)
    assert [(ld.pd_mw, ld.qd_mvar) for ld in got.loads] == [
        (ld.pd_mw, ld.qd_mvar) for ld in want.loads
    ]


# ----------------------------------------------------------------------
# generation plan
# ----------------------------------------------------------------------


def _allocate_generation_reference(arr, adm, v):
    """The per-bus loop the planned allocation replaced (bit reference)."""
    s_inj = v * np.conj(adm.ybus @ v)
    gen_p = arr.pg0.copy()
    gen_q = np.zeros(arr.n_gen)
    for bus in np.unique(arr.gen_bus):
        rows = np.flatnonzero(arr.gen_bus == bus)
        need_s = s_inj[bus] + arr.pd[bus] + 1j * arr.qd[bus]
        if arr.bus_type[bus] == 3:
            scheduled = gen_p[rows].sum()
            gen_p[rows] += (need_s.real - scheduled) / len(rows)
        qrange = np.maximum(arr.qmax[rows] - arr.qmin[rows], 1e-9)
        gen_q[rows] = need_s.imag * qrange / qrange.sum()
    return gen_p, gen_q


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(_NETS)),
    seed=st.integers(0, 2**32 - 1),
    colocate=st.booleans(),
)
def test_planned_allocation_matches_per_bus_loop(case, seed, colocate):
    """Random voltages; optionally every unit doubled onto its own bus
    (co-located units everywhere, a multi-unit slack bus included)."""
    net = _NETS[case]()
    rng = np.random.default_rng(seed)
    if colocate:
        for g in list(net.gens):
            net.add_gen(
                g.bus,
                pg_mw=float(rng.uniform(0.0, 50.0)),
                qmin_mvar=-float(rng.uniform(0.0, 40.0)),
                qmax_mvar=float(rng.uniform(0.0, 60.0)),
            )
    arr, adm = make_admittances(net)
    v = rng.uniform(0.9, 1.1, arr.n_bus) * np.exp(1j * rng.uniform(-0.5, 0.5, arr.n_bus))
    want_p, want_q = _allocate_generation_reference(arr, adm, v)
    got_p, got_q = _allocate_generation(arr, adm, v)
    assert _bits(got_p) == _bits(want_p)
    assert _bits(got_q) == _bits(want_q)


def test_generation_plan_shared_by_derived_snapshots(case30):
    arr, _ = make_admittances(case30)
    plan = generation_plan(arr)
    case30.set_branch_status(5, False)
    assert generation_plan(case30.compile()) is plan


def test_service_import_leaves_scipy_optimize_out():
    """Neither conversation nor ensemble work calls linprog/minimize, so
    importing the service must not pay for scipy.optimize."""
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.service; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
