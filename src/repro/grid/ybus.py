"""Sparse network admittance matrices (Ybus, Yf, Yt) and DC B matrices.

Construction follows the standard pi-model with off-nominal taps and phase
shifters (MATPOWER Appendix B conventions): for branch series admittance
``ys = 1/(r + jx)``, charging ``bc`` and complex tap ``t = tap * e^{j
shift}`` the 2x2 branch admittance block is::

    [ (ys + j bc/2) / |t|^2     -ys / conj(t) ]
    [      -ys / t            ys + j bc/2     ]

Everything is assembled vectorised with COO triplets — no Python loop over
branches.  A contingency sweep does not even pay that per outage:
:func:`outage_admittances` derives a one-branch outage's operators from
the base ones by deleting rows and patching four Ybus entries, bit for
bit what a rebuild gives (see :meth:`~repro.grid.network.Network.admittances`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

if TYPE_CHECKING:
    from .network import NetworkArrays


@dataclass(frozen=True)
class AdmittanceMatrices:
    """Bus and branch-end admittance operators for one network snapshot.

    ``Ybus`` maps bus voltages to bus current injections; ``Yf``/``Yt``
    map bus voltages to the currents flowing into each branch at its from
    and to ends (used for flow limits and loading percentages).
    """

    ybus: sparse.csr_matrix  # (n_bus, n_bus) complex
    yf: sparse.csr_matrix  # (n_branch, n_bus) complex
    yt: sparse.csr_matrix  # (n_branch, n_bus) complex


def build_admittances(arr: NetworkArrays) -> AdmittanceMatrices:
    """Assemble Ybus / Yf / Yt from a compiled network snapshot."""
    nb, nl = arr.n_bus, arr.n_branch
    ys = 1.0 / (arr.r + 1j * arr.x)
    bc = arr.b_charge
    t = arr.tap * np.exp(1j * arr.shift)

    ytt = ys + 1j * bc / 2.0
    yff = ytt / (arr.tap**2)
    yft = -ys / np.conj(t)
    ytf = -ys / t

    rows = np.arange(nl)
    yf = sparse.csr_matrix(
        (np.concatenate([yff, yft]), (np.concatenate([rows, rows]),
                                      np.concatenate([arr.f_bus, arr.t_bus]))),
        shape=(nl, nb),
    )
    yt = sparse.csr_matrix(
        (np.concatenate([ytf, ytt]), (np.concatenate([rows, rows]),
                                      np.concatenate([arr.f_bus, arr.t_bus]))),
        shape=(nl, nb),
    )

    ysh = arr.gs + 1j * arr.bs
    cf = sparse.csr_matrix(
        (np.ones(nl), (rows, arr.f_bus)), shape=(nl, nb)
    )
    ct = sparse.csr_matrix(
        (np.ones(nl), (rows, arr.t_bus)), shape=(nl, nb)
    )
    ybus = cf.T @ yf + ct.T @ yt + sparse.diags(ysh, format="csr")
    return AdmittanceMatrices(ybus=ybus.tocsr(), yf=yf, yt=yt)


def outage_admittances(
    arr: NetworkArrays, adm: AdmittanceMatrices, row: int
) -> AdmittanceMatrices | None:
    """The admittances of ``arr`` with branch row ``row`` out of service.

    Bit for bit what :func:`build_admittances` gives on the outage's
    snapshot: Yf and Yt lose the branch's row, and the four Ybus entries
    the branch touches are summed again over the remaining branches in
    the order scipy's ``cf.T @ yf + ct.T @ yt + diag(ysh)`` sums them —
    ``(Σ yf[j, k] over branches j leaving i, ascending) + (Σ yt[j, k]
    over branches j entering i, ascending) + ysh[i] (diagonal only)``.
    An entry that sums to exactly zero is dropped, as scipy drops it: an
    off-diagonal pair without a parallel branch left, or the diagonal of
    a bus the outage isolates.  Returns ``None`` (rebuild instead) in the
    one case the base pattern cannot hold the result: an entry the base
    summed to exactly zero that the outage makes non-zero, or a
    self-loop branch.
    """
    f, t = arr.f_bus[row], arr.t_bus[row]
    if f == t:
        return None
    ends = np.array([f, t])
    ysh = arr.gs[ends] + 1j * arr.bs[ends]
    near = np.flatnonzero(
        (arr.f_bus == f) | (arr.f_bus == t) | (arr.t_bus == f) | (arr.t_bus == t)
    )
    near = near[near != row]
    ybus = adm.ybus
    data = ybus.data.copy()
    dropped: list[int] = []
    for a, i in enumerate(ends.tolist()):
        for k in ends.tolist():
            leaving = _branch_sum(adm.yf, near[arr.f_bus[near] == i], k)
            entering = _branch_sum(adm.yt, near[arr.t_bus[near] == i], k)
            value = leaving + entering + (ysh[a] if i == k else 0j)
            lo, hi = ybus.indptr[i], ybus.indptr[i + 1]
            pos = lo + int(np.searchsorted(ybus.indices[lo:hi], k))
            present = pos < hi and ybus.indices[pos] == k
            if value == 0:
                if present:
                    dropped.append(pos)
            elif present:
                data[pos] = value
            else:
                return None
    indptr, indices = ybus.indptr, ybus.indices
    if dropped:
        keep = np.ones(data.size, dtype=bool)
        keep[dropped] = False
        data, indices = data[keep], indices[keep]
        indptr = indptr - np.searchsorted(
            np.sort(dropped), indptr, side="left"
        ).astype(indptr.dtype)
    return AdmittanceMatrices(
        ybus=sparse.csr_matrix((data, indices, indptr), shape=ybus.shape),
        yf=_drop_row(adm.yf, row),
        yt=_drop_row(adm.yt, row),
    )


def _branch_sum(m: sparse.csr_matrix, rows: np.ndarray, k: int) -> complex:
    """``Σ m[j, k]`` over branch ``rows`` in ascending order, from zero."""
    total = 0j
    for j in rows.tolist():
        lo, hi = m.indptr[j], m.indptr[j + 1]
        for p in range(lo, hi):
            if m.indices[p] == k:
                total = total + m.data[p]
    return total


def _drop_row(m: sparse.csr_matrix, row: int) -> sparse.csr_matrix:
    """``m`` without ``row``, every other entry and index kept as is."""
    lo, hi = m.indptr[row], m.indptr[row + 1]
    indptr = np.concatenate((m.indptr[: row + 1], m.indptr[row + 2 :] - (hi - lo)))
    return sparse.csr_matrix(
        (
            np.concatenate((m.data[:lo], m.data[hi:])),
            np.concatenate((m.indices[:lo], m.indices[hi:])),
            indptr,
        ),
        shape=(m.shape[0] - 1, m.shape[1]),
    )


def build_b_matrices(arr: NetworkArrays) -> tuple[sparse.csr_matrix, sparse.csr_matrix, np.ndarray]:
    """DC power-flow matrices ``(Bbus, Bf, pf_shift)``.

    ``Bbus @ theta + p_shift_bus = P_inj`` and ``Bf @ theta + pf_shift =
    P_from``; the shift terms carry phase-shifter contributions.  Series
    resistance is ignored per the DC approximation.
    """
    nb, nl = arr.n_bus, arr.n_branch
    b_series = 1.0 / (arr.x * arr.tap)
    rows = np.arange(nl)
    bf = sparse.csr_matrix(
        (np.concatenate([b_series, -b_series]),
         (np.concatenate([rows, rows]), np.concatenate([arr.f_bus, arr.t_bus]))),
        shape=(nl, nb),
    )
    cf = sparse.csr_matrix((np.ones(nl), (rows, arr.f_bus)), shape=(nl, nb))
    ct = sparse.csr_matrix((np.ones(nl), (rows, arr.t_bus)), shape=(nl, nb))
    bbus = (cf - ct).T @ bf
    pf_shift = -arr.shift * b_series
    return bbus.tocsr(), bf, pf_shift
