"""Generator cost models for the OPF objective.

Costs are polynomial in MW (MATPOWER convention); the solver works in
per-unit, so evaluation applies the chain rule with the MVA base.  Only
convex polynomials make sense for the interior-point method — a validity
check is provided for the problem assembler.
"""

from __future__ import annotations

import numpy as np


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise ``np.polyval``: ``coeffs`` is (n, degree + 1), highest first.

    Starts from zero exactly as ``np.polyval`` does, so leading zero
    padding leaves every value bit-identical to the per-row call.
    """
    y = np.zeros(coeffs.shape[0])
    for col in coeffs.T:
        y = y * x + col
    return y


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """Column-wise ``np.polyder`` of zero-padded coefficient rows."""
    degree = coeffs.shape[1] - 1
    return coeffs[:, :-1] * np.arange(degree, 0, -1)


class PolynomialCosts:
    """Vectorised evaluation of per-generator polynomial costs.

    ``coeffs[i]`` is highest-degree-first for generator ``i`` (any degree;
    quadratic in practice).  All methods take per-unit dispatch and return
    $/h quantities differentiated w.r.t. per-unit power.  The coefficients
    and their first and second derivatives are zero-padded to a common
    degree once, so every evaluation is one column-wise Horner pass.
    """

    def __init__(self, coeffs: list[tuple[float, ...]], base_mva: float) -> None:
        if base_mva <= 0:
            raise ValueError("base_mva must be positive")
        self.coeffs = [tuple(float(c) for c in cs) for cs in coeffs]
        self.base_mva = float(base_mva)
        self.n = len(self.coeffs)
        # Degree >= 2 keeps the second-derivative table non-empty.
        width = max([3, *(len(cs) for cs in self.coeffs)])
        self._c0 = np.zeros((self.n, width))
        for i, cs in enumerate(self.coeffs):
            if cs:
                self._c0[i, width - len(cs):] = cs
        self._c1 = _derivative(self._c0)
        self._c2 = _derivative(self._c1)

    def cost(self, pg_pu: np.ndarray) -> float:
        """Total cost ($/h) at the given per-unit dispatch."""
        p_mw = np.asarray(pg_pu) * self.base_mva
        # Accumulated in generator order, like a running Python sum.
        return float(0.0 + np.cumsum(_horner(self._c0, p_mw))[-1]) if self.n else 0.0

    def gradient(self, pg_pu: np.ndarray) -> np.ndarray:
        """d(cost)/d(pg_pu) — note the chain-rule factor of base MVA."""
        p_mw = np.asarray(pg_pu) * self.base_mva
        return _horner(self._c1, p_mw) * self.base_mva

    def hessian_diag(self, pg_pu: np.ndarray) -> np.ndarray:
        """d2(cost)/d(pg_pu)2 diagonal."""
        p_mw = np.asarray(pg_pu) * self.base_mva
        return _horner(self._c2, p_mw) * self.base_mva**2

    def is_convex(self) -> bool:
        """True if every cost curve has non-negative curvature everywhere.

        For the quadratic costs used by all bundled cases this reduces to
        ``c2 >= 0``; higher-degree polynomials are rejected conservatively
        unless they are degree <= 2.
        """
        for cs in self.coeffs:
            if len(cs) > 3:
                return False
            if len(cs) == 3 and cs[0] < 0:
                return False
        return True

    def marginal_cost_mw(self, pg_pu: np.ndarray) -> np.ndarray:
        """d(cost)/d(P_MW) in $/MWh — what dispatch stacks compare."""
        return self.gradient(pg_pu) / self.base_mva
