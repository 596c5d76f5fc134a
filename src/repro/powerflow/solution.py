"""Power-flow result container and post-solve quantities.

Converts a converged voltage vector into everything the agents and the
contingency engine consume: branch flows and loading percentages, losses,
per-generator allocations, and the mismatch diagnostics that GridMind's
validation layer checks against its 1e-4 p.u. tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid.network import Network, NetworkArrays
from ..grid.ybus import AdmittanceMatrices, build_admittances
from ..grid.units import rad_to_deg


class FlowSummary:
    """Voltage and loading read-outs shared by every AC result type.

    Subclasses carry ``vm`` (per-bus magnitudes, p.u.), ``loading_percent``
    and the ``branch_ids`` its rows map back to; the agents, the N-1
    engine and the study records reduce any of them the same way.
    """

    @property
    def min_voltage_pu(self) -> float:
        return float(self.vm.min())

    @property
    def max_voltage_pu(self) -> float:
        return float(self.vm.max())

    @property
    def max_loading_percent(self) -> float:
        return float(self.loading_percent.max()) if self.loading_percent.size else 0.0

    def overloaded_branches(self, threshold: float = 100.0) -> list[tuple[int, float]]:
        """(branch_id, loading %) pairs above ``threshold``, worst first."""
        rows = np.flatnonzero(self.loading_percent > threshold)
        pairs = [
            (int(self.branch_ids[r]), float(self.loading_percent[r])) for r in rows
        ]
        return sorted(pairs, key=lambda p: -p[1])

    def voltage_violations(
        self, vmin: float = 0.94, vmax: float = 1.06
    ) -> list[tuple[int, float]]:
        """(bus, vm) pairs outside the band, most extreme first."""
        out = [
            (i, float(v)) for i, v in enumerate(self.vm) if v < vmin or v > vmax
        ]
        return sorted(out, key=lambda p: min(abs(p[1] - vmin), abs(p[1] - vmax)), reverse=True)


@dataclass
class PowerFlowResult(FlowSummary):
    """Outcome of one AC (or DC) power-flow solve.

    All array fields are per the compiled snapshot's ordering; powers are
    in physical units (MW / MVAr / MVA) for direct consumption by agents.
    """

    converged: bool
    iterations: int
    method: str
    max_mismatch_pu: float
    vm: np.ndarray  # (n_bus,) p.u.
    va_deg: np.ndarray  # (n_bus,)
    p_from_mw: np.ndarray  # (n_branch,)
    q_from_mvar: np.ndarray
    p_to_mw: np.ndarray
    q_to_mvar: np.ndarray
    s_from_mva: np.ndarray
    s_to_mva: np.ndarray
    loading_percent: np.ndarray  # (n_branch,) vs rate_a (0 where unrated)
    branch_ids: np.ndarray  # maps rows back to Network.branches positions
    gen_p_mw: np.ndarray  # (n_gen,) allocated outputs
    gen_q_mvar: np.ndarray
    gen_ids: np.ndarray
    losses_mw: float
    losses_mvar: float
    runtime_s: float = 0.0
    message: str = ""
    extras: dict = field(default_factory=dict)


def finalize_solution(
    net: Network,
    arr: NetworkArrays,
    adm: AdmittanceMatrices,
    v: np.ndarray,
    *,
    converged: bool,
    iterations: int,
    method: str,
    max_mismatch_pu: float,
    runtime_s: float = 0.0,
    message: str = "",
) -> PowerFlowResult:
    """Assemble a :class:`PowerFlowResult` from a final voltage vector."""
    base = arr.base_mva
    sf = v[arr.f_bus] * np.conj(adm.yf @ v)
    st = v[arr.t_bus] * np.conj(adm.yt @ v)
    s_from = np.abs(sf) * base
    s_to = np.abs(st) * base
    loading = loading_percent(arr, s_from, s_to)

    losses = (sf + st) * base

    gen_p, gen_q = _allocate_generation(arr, adm, v)

    return PowerFlowResult(
        converged=converged,
        iterations=iterations,
        method=method,
        max_mismatch_pu=max_mismatch_pu,
        vm=np.abs(v),
        va_deg=rad_to_deg(np.angle(v)),
        p_from_mw=sf.real * base,
        q_from_mvar=sf.imag * base,
        p_to_mw=st.real * base,
        q_to_mvar=st.imag * base,
        s_from_mva=s_from,
        s_to_mva=s_to,
        loading_percent=loading,
        branch_ids=arr.branch_ids.copy(),
        gen_p_mw=gen_p * base,
        gen_q_mvar=gen_q * base,
        gen_ids=arr.gen_ids.copy(),
        losses_mw=float(losses.real.sum()),
        losses_mvar=float(losses.imag.sum()),
        runtime_s=runtime_s,
        message=message,
    )


def loading_percent(
    arr: NetworkArrays, s_from_mva: np.ndarray, s_to_mva: np.ndarray
) -> np.ndarray:
    """Branch loading vs ``rate_a`` from the worse end (0 where unrated).

    Broadcasts over leading axes, so stacked per-row flows work too.
    """
    s_worst = np.maximum(s_from_mva, s_to_mva)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            arr.rate_a > 0, 100.0 * s_worst / (arr.rate_a * arr.base_mva), 0.0
        )


def _allocate_generation(
    arr: NetworkArrays, adm: AdmittanceMatrices, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Back out per-generator P/Q from the solved bus injections.

    At PV/slack buses the network-level injection is known; it is split
    among co-located units — P deviation goes to slack-bus units evenly,
    Q proportionally to each unit's Q range (the usual AVR-share model).
    """
    s_inj = v * np.conj(adm.ybus @ v)  # net bus injection, p.u.
    gen_p = arr.pg0.copy()
    gen_q = np.zeros(arr.n_gen)

    for bus in np.unique(arr.gen_bus):
        rows = np.flatnonzero(arr.gen_bus == bus)
        need_s = s_inj[bus] + arr.pd[bus] + 1j * arr.qd[bus]
        if arr.bus_type[bus] == 3:  # slack: absorb P mismatch too
            scheduled = gen_p[rows].sum()
            gen_p[rows] += (need_s.real - scheduled) / len(rows)
        # Split the bus's required Q among co-located units in proportion
        # to their reactive capability (AVR-share model).
        qrange = np.maximum(arr.qmax[rows] - arr.qmin[rows], 1e-9)
        gen_q[rows] = need_s.imag * qrange / qrange.sum()
    return gen_p, gen_q


def make_admittances(net: Network) -> tuple[NetworkArrays, AdmittanceMatrices]:
    """Compile the network and build its admittance operators in one step.

    The admittance build is memoised behind the network's version counter
    (the same invalidation rule as ``compile`` and the content-hash memo):
    an unmodified network pays one Ybus construction however many solver
    calls touch it — every rung of the recovery ladder, every warm-started
    ensemble scenario, every N-1 base solve reuses the cached operators.
    """
    arr = net.compile()
    memo = getattr(net, "_adm_memo", None)
    if memo is not None and memo[0] == net._version:
        return arr, memo[1]
    adm = build_admittances(arr)
    net._adm_memo = (net._version, adm)
    return arr, adm
