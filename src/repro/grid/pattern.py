"""Fixed sparsity patterns filled with fresh values on every call.

Derivative matrices of AC power flow and OPF live on the pattern of
``Ybus``: power balance couples only Ybus neighbours.  Their values change
on every iteration, their pattern never does.  :class:`FixedPattern`
sorts the entries once, so each call only computes a ``data`` array.
The ACOPF (:class:`repro.opf.acopf.ACOPFProblem`) fills its Jacobians and
Lagrangian Hessian through it, and the Newton power flow its Jacobian
(:class:`repro.powerflow.jacobian.NewtonJacobian`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class FixedPattern:
    """A CSR sparsity pattern fixed at construction, filled once per call.

    ``rows``/``cols`` list the entries in *source order*: the order in
    which :meth:`fill` receives their values.  Entries must be distinct.
    Every matrix :meth:`fill` returns shares the sorted ``indptr`` and
    ``indices`` arrays and owns a fresh ``data`` array; zero values stay
    stored, so the pattern never depends on the values.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self.order = np.lexsort((cols, rows))
        keys = rows[self.order] * shape[1] + cols[self.order]
        if np.any(np.diff(keys) == 0):
            raise ValueError("a fixed pattern cannot hold duplicate entries")
        self.rows, self.cols, self.shape = rows, cols, shape
        self.indices = cols[self.order].astype(np.int32)
        self.indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=self.indptr[1:])

    def fill(self, values: np.ndarray) -> sparse.csr_matrix:
        """The pattern's matrix holding ``values`` (in source order)."""
        return sparse.csr_matrix(
            (values[self.order], self.indices, self.indptr), shape=self.shape
        )

    def stack(self, rows: np.ndarray, cols: np.ndarray, n_rows: int) -> "FixedPattern":
        """This pattern with ``n_rows`` more rows appended underneath.

        ``rows`` (counted from the first new row) and ``cols`` place the
        new entries; the stacked pattern's values are this pattern's
        followed by the new entries', in that source order.
        """
        return FixedPattern(
            np.concatenate([self.rows, np.asarray(rows) + self.shape[0]]),
            np.concatenate([self.cols, cols]),
            (self.shape[0] + n_rows, self.shape[1]),
        )
