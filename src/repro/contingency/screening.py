"""Two-stage contingency screening: vectorised DC estimate, AC verify.

Classic production CA strategy (and this repo's main HPC ablation): rank
all outages with the LODF estimate in one matrix operation, then run the
expensive AC power flow only on the top slice.  The benchmark
``benchmarks/test_ablation_ca_screening.py`` measures both the speedup and
the ranking agreement against the exhaustive sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..grid.network import Network, NetworkArrays
from ..powerflow.batch import DcKernel
from ..powerflow.dc import solve_dc
from .lodf import SensitivityFactors, compute_factors, post_outage_flows
from .nminus1 import NMinus1Report, run_n_minus_1


@dataclass
class ScreeningEstimate:
    """DC-level severity estimates for every candidate outage."""

    branch_ids: np.ndarray
    est_max_loading_percent: np.ndarray
    est_overload_count: np.ndarray
    est_severity: np.ndarray
    islanding: np.ndarray  # branch ids flagged as islanding by LODF
    runtime_s: float

    def top(self, n: int) -> list[int]:
        """Most severe candidates first (islanding outages excluded —
        those need no AC verification)."""
        order = np.argsort(-self.est_severity)
        island = set(int(b) for b in self.islanding)
        ranked = [int(self.branch_ids[i]) for i in order]
        return [b for b in ranked if b not in island][:n]


def _estimate_from_post(
    arr: NetworkArrays,
    factors: SensitivityFactors,
    post: np.ndarray,
    runtime_s: float,
) -> ScreeningEstimate:
    """Reduce one (n_branch, n_branch) post-outage flow matrix to severity
    estimates — the single reduction both the scalar and batched screening
    paths run, so their estimates are bit-identical by construction."""
    rate = arr.rate_a * arr.base_mva
    rated = rate > 0

    loading = np.zeros_like(post)
    loading[rated] = 100.0 * np.abs(post[rated]) / rate[rated, np.newaxis]

    est_max = loading.max(axis=0)
    excess = np.maximum(loading - 100.0, 0.0) / 100.0
    est_cnt = (loading > 100.0).sum(axis=0)
    est_sev = excess.sum(axis=0)

    # Mask islanding columns: they are handled topologically, not by flows.
    island_rows = np.isin(arr.branch_ids, factors.islanding_outages)
    est_max[island_rows] = 0.0
    est_sev[island_rows] = 0.0
    est_cnt[island_rows] = 0

    return ScreeningEstimate(
        branch_ids=arr.branch_ids.copy(),
        est_max_loading_percent=est_max,
        est_overload_count=est_cnt.astype(int),
        est_severity=est_sev,
        islanding=factors.islanding_outages.copy(),
        runtime_s=runtime_s,
    )


def screen_dc(net: Network, *, factors=None) -> ScreeningEstimate:
    """Estimate every single-outage severity from one LODF product.

    ``factors`` accepts precomputed PTDF/LODF sensitivities for the
    current topology (batch studies reuse one factorisation across many
    load-level scenarios); by default they are computed here.
    """
    start = time.perf_counter()
    arr = net.compile()
    if factors is None:
        factors = compute_factors(net)
    base = solve_dc(net)
    f0 = base.p_from_mw

    post = post_outage_flows(factors, f0)  # (nl, nl) MW
    return _estimate_from_post(arr, factors, post, time.perf_counter() - start)


#: Scenario-block ceiling for the batched post-outage tensor: blocks are
#: sized so one (block, n_branch, n_branch) slab stays a few tens of MB
#: however large the chunk or the case.
_POST_BLOCK_FLOATS = 4_000_000


def screen_dc_many(
    kernel: DcKernel,
    factors: SensitivityFactors,
    p_inj: np.ndarray,
) -> list[ScreeningEstimate]:
    """Batched DC screening: estimates for a whole injection stack.

    One multi-RHS solve produces every scenario's base flows, then the
    post-outage flows for the group come from one broadcasted
    ``f0 + LODF * f0`` product per block (the matrix-product form of
    :func:`~repro.contingency.lodf.post_outage_flows`).  Per-element
    arithmetic matches the scalar path exactly, so estimate ``i`` is
    bit-identical to ``screen_dc`` on scenario ``i``'s realized network.
    """
    start = time.perf_counter()
    arr = kernel.arr
    nl = arr.n_branch
    batch = kernel.solve_many(p_inj)
    flows_mw = batch.p_flow * arr.base_mva  # (n, nl), == solve_dc().p_from_mw

    estimates: list[ScreeningEstimate] = []
    block = max(1, _POST_BLOCK_FLOATS // max(1, nl * nl))
    diag = np.arange(nl)
    for lo in range(0, flows_mw.shape[0], block):
        f0 = flows_mw[lo : lo + block]  # (b, nl)
        # post[s, l, k] = f0[s, l] + LODF[l, k] * f0[s, k]
        post = f0[:, :, np.newaxis] + factors.lodf[np.newaxis, :, :] * f0[
            :, np.newaxis, :
        ]
        post[:, diag, diag] = 0.0  # the outaged branch itself carries nothing
        runtime = time.perf_counter() - start
        estimates.extend(
            _estimate_from_post(arr, factors, post[s], runtime)
            for s in range(post.shape[0])
        )
    return estimates


def run_screened_n_minus_1(
    net: Network,
    *,
    ac_budget: int = 30,
) -> tuple[NMinus1Report, ScreeningEstimate]:
    """Run the two-stage analysis.

    ``ac_budget`` caps how many candidates get the full AC treatment; the
    islanding outages found topologically are always included in the
    report (they come back from the AC stage's bridge handling).
    """
    estimate = screen_dc(net)
    candidates = estimate.top(ac_budget)
    # Islanding outages are cheap (no solve) — always include for completeness.
    candidates = sorted(set(candidates) | set(int(b) for b in estimate.islanding))
    report = run_n_minus_1(net, branch_ids=candidates)
    report.extras["screening"] = estimate
    report.extras["ac_budget"] = ac_budget
    return report, estimate
