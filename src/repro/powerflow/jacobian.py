"""The Newton power flow's Jacobian, filled over a fixed pattern.

In polar coordinates the Jacobian's four blocks are slices of the
derivatives of the bus injections ``S = diag(V) conj(Ybus V)``::

    dS/dVm = diag(V) conj(Ybus diag(V/|V|)) + conj(diag(Ibus)) diag(V/|V|)
    dS/dVa = j diag(V) conj(diag(Ibus) - Ybus diag(V))

    J = [ Re dS/dVa[pvpq, pvpq]   Re dS/dVm[pvpq, pq] ]
        [ Im dS/dVa[pq, pvpq]     Im dS/dVm[pq, pq]   ]

Both derivatives live on the pattern of ``Ybus`` plus its diagonal, and
the PV/PQ partition only selects which of their real and imaginary parts
land where.  :class:`NewtonJacobian` maps every such entry to its slot in
``J`` once per (Ybus, partition); each Newton iteration then computes the
entries' values with numpy and gathers them into one CSC matrix.

The fill is bit-identical to the form it replaced, in which scipy built
both derivatives from sparse matrix products (as MATPOWER does), sliced
four blocks out with ``np.ix_`` and joined them into one CSC matrix: same
values, same ``data``/``indices``/``indptr``, so SuperLU sees the same
matrix.  That holds because every complex product is written out in
real arithmetic the way scipy's sparse kernels round it, and because the
pattern leaves out exactly the entries those kernels drop as exact zeros:
the angle derivative on the diagonal of a bus without neighbours and both
diagonal derivatives of a bus with an empty Ybus row.
``tests/test_jacobian.py`` keeps the product form as its reference.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..grid.components import BusType
from ..grid.pattern import FixedPattern


def _mul(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray):
    """``(ar + j ai)(br + j bi)`` rounded as scipy's sparse kernels do.

    numpy's vectorised complex ``*`` may round the last bit differently,
    so the fill spells every complex product out in real ufuncs.
    """
    return ar * br - ai * bi, ar * bi + ai * br


class NewtonJacobian:
    """The Newton Jacobian of one Ybus and one PV/PQ partition.

    ``pv``/``pq``/``pvpq`` are the partition's bus orderings (``pvpq`` is
    ``pv`` followed by ``pq``, the unknowns' angle order).  Calling the
    assembler with a complex voltage vector returns ``J`` as a CSC matrix
    that shares the pattern's ``indptr``/``indices`` and owns fresh
    ``data``.
    """

    def __init__(self, ybus: sparse.spmatrix, bus_type: np.ndarray) -> None:
        self.ybus = ybus
        nb = ybus.shape[0]
        self.pv = np.flatnonzero(bus_type == int(BusType.PV))
        self.pq = np.flatnonzero(bus_type == int(BusType.PQ))
        self.pvpq = np.concatenate([self.pv, self.pq])
        npvpq = len(self.pvpq)
        self.n = npvpq + len(self.pq)

        # Entries: the diagonal (bus order), then Ybus' off-diagonals.
        csr = ybus.tocsr()
        keep = csr.data != 0
        row = np.repeat(np.arange(nb), np.diff(csr.indptr))[keep]
        col, val = csr.indices[keep], csr.data[keep]
        off = row != col
        y_diag = np.zeros(nb, dtype=complex)
        y_diag[row[~off]] = val[~off]
        self.pr = np.concatenate([np.arange(nb), row[off]])
        self.pc = np.concatenate([np.arange(nb), col[off]])
        y = np.concatenate([y_diag, val[off]])
        self.yr, self.yi = y.real.copy(), y.imag.copy()
        self.nnz = len(self.pr)

        # Diagonal entries that are exact zeros, which the product form
        # does not store: dS/dVa of a bus without neighbours (Ibus_i and
        # Y_ii V_i cancel exactly) and both derivatives of an empty row.
        has_nbr = np.bincount(row[off], minlength=nb) > 0
        has_row = has_nbr | (y_diag != 0)
        off_diag = np.ones(self.nnz - nb, dtype=bool)
        live_va = np.concatenate([has_nbr, off_diag])
        live_vm = np.concatenate([has_row, off_diag])

        # Each bus's angle and magnitude unknown (-1: not an unknown).
        ang = np.full(nb, -1)
        ang[self.pvpq] = np.arange(npvpq)
        mag = np.full(nb, -1)
        mag[self.pq] = npvpq + np.arange(len(self.pq))

        # Slots of J, as (row, col, source) with sources indexing the
        # stacked values [Re dS/dVa | Im dS/dVa | Re dS/dVm | Im dS/dVm].
        j_rows, j_cols, sources = [], [], []
        entry = np.arange(self.nnz)
        for part, (rmap, cmap, live) in enumerate(
            ((ang, ang, live_va), (mag, ang, live_va), (ang, mag, live_vm), (mag, mag, live_vm))
        ):
            hit = (rmap[self.pr] >= 0) & (cmap[self.pc] >= 0) & live
            j_rows.append(rmap[self.pr[hit]])
            j_cols.append(cmap[self.pc[hit]])
            sources.append(part * self.nnz + entry[hit])
        # CSC of J is CSR of its transpose.
        pattern = FixedPattern(np.concatenate(j_cols), np.concatenate(j_rows), (self.n, self.n))
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self.gather = np.concatenate(sources)[pattern.order]

    def __call__(self, v: np.ndarray) -> sparse.csc_matrix:
        """``J`` at the complex bus voltages ``v``."""
        nb = len(v)
        pr, pc = self.pr, self.pc
        ibus = self.ybus @ v
        vnorm = v / np.abs(v)
        jv = v * 1j
        # Ibus on the diagonal entries, zero elsewhere.
        cr = np.zeros(self.nnz)
        ci = np.zeros(self.nnz)
        cr[:nb], ci[:nb] = ibus.real, ibus.imag

        values = np.empty((4, self.nnz))
        # dS/dVa = j V_i conj(Ibus_i [diagonal] - Y_ij V_j)
        br, bi = _mul(self.yr, self.yi, v.real[pc], v.imag[pc])
        values[0], values[1] = _mul(jv.real[pr], jv.imag[pr], cr - br, bi - ci)
        # dS/dVm = V_i conj(Y_ij V_j/|V_j|) + conj(Ibus_i) V_i/|V_i| [diagonal]
        ar, ai = _mul(self.yr, self.yi, vnorm.real[pc], vnorm.imag[pc])
        re, im = _mul(v.real[pr], v.imag[pr], ar, -ai)
        cr[:nb], ci[:nb] = _mul(ibus.real, -ibus.imag, vnorm.real, vnorm.imag)
        values[2], values[3] = re + cr, im + ci

        return sparse.csc_matrix(
            (values.ravel()[self.gather], self.indices, self.indptr), shape=(self.n, self.n)
        )
