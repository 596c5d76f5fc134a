#!/usr/bin/env python
"""Tier-2 ACOPF smoke: solved dispatches checked without the assembler.

Solves the ACOPF on ieee30/57/118 and the preventive SCOPF on ieee30,
then checks each result by means independent of the OPF's own derivative
assembly:

* ``validate_acopf`` passes (convergence, power balance, voltage, dispatch
  and thermal limits);
* a Newton power flow (``solve_newton``) run from the OPF's dispatch and
  generator voltage setpoints converges and reproduces the OPF's complex
  bus voltages and both-end branch flows within 1e-5 p.u., and the slack
  output within 1e-5 p.u. of the dispatched one.

Exits nonzero on the first violated invariant.

Usage::

    PYTHONPATH=src python scripts/opf_smoke.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.validation import validate_acopf
from repro.grid.cases import load_case
from repro.opf import solve_acopf, solve_scopf
from repro.powerflow import solve_newton

ATOL_PU = 1e-5


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def replay(net, opf):
    """Newton power flow from the OPF's dispatch and voltage setpoints."""
    pf_net = net.copy()
    for row, gid in enumerate(opf.gen_ids):
        gen = pf_net.gens[int(gid)]
        gen.pg_mw = float(opf.pg_mw[row])
        gen.vg_pu = float(opf.vm[gen.bus])
    pf_net.touch()
    return solve_newton(pf_net, tol=1e-10)


def verify(label: str, net, opf) -> None:
    report = validate_acopf(net, opf)
    check(report.ok, f"{label}: validate_acopf passes ({report.describe()})")

    pf = replay(net, opf)
    check(pf.converged, f"{label}: Newton converges from the OPF setpoints")
    v_opf = opf.vm * np.exp(1j * np.deg2rad(opf.va_deg))
    v_pf = pf.vm * np.exp(1j * np.deg2rad(pf.va_deg))
    dv = float(np.max(np.abs(v_pf - v_opf)))
    check(dv <= ATOL_PU, f"{label}: bus voltages agree (max |dV| {dv:.1e} p.u.)")

    base = net.base_mva
    assert np.array_equal(pf.branch_ids, opf.branch_ids)
    ds = max(
        float(np.max(np.abs(pf.s_from_mva - opf.s_from_mva))),
        float(np.max(np.abs(pf.s_to_mva - opf.s_to_mva))),
    ) / base
    check(ds <= ATOL_PU, f"{label}: branch flows agree (max |dS| {ds:.1e} p.u.)")

    arr = net.compile()
    slack = np.isin(arr.gen_bus, arr.slack_buses)
    dp = float(np.max(np.abs(pf.gen_p_mw[slack] - opf.pg_mw[slack]))) / base
    check(dp <= ATOL_PU, f"{label}: slack output agrees (|dP| {dp:.1e} p.u.)")


def main() -> None:
    for name in ("ieee30", "ieee57", "ieee118"):
        net = load_case(name)
        tick = time.perf_counter()
        opf = solve_acopf(net)
        print(f"{name}: ACOPF {opf.iterations} iterations in "
              f"{time.perf_counter() - tick:.2f} s, cost {opf.objective_cost:.2f} $/h")
        verify(f"{name} ACOPF", net, opf)

    net = load_case("ieee30")
    tick = time.perf_counter()
    sc = solve_scopf(net)
    print(f"ieee30: SCOPF {sc.iterations} rounds, {len(sc.constraints)} cuts in "
          f"{time.perf_counter() - tick:.2f} s, premium {sc.security_cost:.2f} $/h")
    check(sc.converged, "ieee30 SCOPF converges")
    verify("ieee30 SCOPF", net, sc.opf)
    print("opf smoke: all checks passed")


if __name__ == "__main__":
    main()
