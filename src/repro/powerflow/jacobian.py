"""Partial derivatives of bus power injections w.r.t. voltage.

``dSbus_dV`` is the standard sparse polar-coordinate derivative block (the
formula MATPOWER's ``dSbus_dV`` implements), built from sparse matrix
products; the Newton power flow assembles its Jacobian from it, and its
values are pinned by finite-difference tests in ``tests/test_jacobian.py``.

The ACOPF does not use it: :class:`repro.opf.acopf.ACOPFProblem` fills the
same derivatives, the branch-flow ones and all second derivatives element
by element over a fixed ``Ybus`` pattern, which costs a fraction of the
sparse products per interior-point iteration.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def _diag(v: np.ndarray) -> sparse.csr_matrix:
    return sparse.diags(v, format="csr")


def dSbus_dV(ybus: sparse.spmatrix, v: np.ndarray) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Derivatives of bus injections ``S = diag(V) conj(Ybus V)``.

    Returns ``(dS_dVa, dS_dVm)`` where Va is the angle vector (radians)
    and Vm the magnitude vector.
    """
    ibus = ybus @ v
    diag_v = _diag(v)
    diag_ibus = _diag(ibus)
    diag_vnorm = _diag(v / np.abs(v))

    ds_dvm = diag_v @ (ybus @ diag_vnorm).conjugate() + diag_ibus.conjugate() @ diag_vnorm
    ds_dva = 1j * diag_v @ (diag_ibus - ybus @ diag_v).conjugate()
    return ds_dva.tocsr(), ds_dvm.tocsr()
