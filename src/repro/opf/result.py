"""OPF result containers shared by the PDIPM, scipy, and DC backends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class OPFResult:
    """Outcome of an (AC/DC) optimal power flow solve.

    Physical units at this layer: MW / MVAr / $ / $/MWh.  ``lmp_mw`` are
    nodal prices recovered from the active-power balance multipliers;
    ``branch_mu`` are the flow-limit shadow prices (congestion rents).
    """

    converged: bool
    objective_cost: float  # $/h
    method: str
    iterations: int
    vm: np.ndarray  # (n_bus,) p.u.
    va_deg: np.ndarray
    pg_mw: np.ndarray  # (n_gen,) per compiled gen row
    qg_mvar: np.ndarray
    gen_ids: np.ndarray
    loading_percent: np.ndarray  # (n_branch,)
    s_from_mva: np.ndarray
    s_to_mva: np.ndarray
    branch_ids: np.ndarray
    losses_mw: float
    lmp_mw: np.ndarray  # (n_bus,) $/MWh
    branch_mu: np.ndarray  # (n_branch,) $/MVA-h equivalent shadow prices
    max_power_balance_mismatch_pu: float
    runtime_s: float = 0.0
    message: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def min_voltage_pu(self) -> float:
        return float(self.vm.min())

    @property
    def max_voltage_pu(self) -> float:
        return float(self.vm.max())

    @property
    def max_loading_percent(self) -> float:
        return float(self.loading_percent.max()) if self.loading_percent.size else 0.0

    @property
    def total_generation_mw(self) -> float:
        return float(self.pg_mw.sum())

    def binding_branches(self, slack_percent: float = 0.5) -> list[int]:
        """Branch ids whose loading is within ``slack_percent`` of 100 %."""
        rows = np.flatnonzero(self.loading_percent >= 100.0 - slack_percent)
        return [int(self.branch_ids[r]) for r in rows]
