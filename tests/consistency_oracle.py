"""Reference admissibility mask, hexagon and unitarity checks on dense
copies of F.

The hexagon and unitarity checks are the formulations that
:func:`anyonbraid.model._block_residuals` replaced with one walk over the
admissible blocks of F.  The hexagon gathers its factor rows from a
transposed complex copy of F, so it must agree with the library bit for
bit.  The unitarity check multiplies every full ``m x m`` matrix
``F_d^{abc}``, inadmissible zeros included, with its adjoint, which the
library does on the admissible blocks only; the products may round
differently in the last place.  Both are test-only: at su2_k k=11 they
traced 63 and 69 MiB.

The hexagon's tuples come from a relational join of the fusion triples,
independent of the F-matrix blocks the library reads them from.
"""

import numpy as np

from pentagon_oracle import _join_on


def admissible_f(N: np.ndarray) -> np.ndarray:
    """Boolean mask of the admissible F-symbol indices ``(a, b, c, d, e, f)``:
    ``e in ab``, ``d in ec``, ``f in bc`` and ``d in af``, as four factors
    over the whole ``m**6`` index space."""
    N = N.astype(bool)
    abe = N[:, :, None, None, :, None]
    ecd = N.transpose(1, 2, 0)[None, None, :, :, :, None]
    bcf = N[None, :, :, None, None, :]
    afd = N.transpose(0, 2, 1)[:, None, None, :, None, :]
    return abe & ecd & bcf & afd


def kappa(model, a) -> complex:
    """The bending phase ``d_a * [F_a^{a,dual(a),a}]_{00}`` of charge ``a``.

    Gauge-dependent in general; for self-dual ``a`` this is the
    Frobenius-Schur indicator and equals +-1.
    """
    ia = model.charge(a).index
    return complex(model.qd[ia] * model.F[ia, model.dual(a).index, ia, ia, 0, 0])


def _hexagon_tuples(N: np.ndarray) -> np.ndarray:
    """Admissible hexagon tuples, columns (a, b, c, d, e, f).

    Admissibility: e in ac, d in eb, f in cb, d in af.
    """
    ace = np.argwhere(N)  # rows (a, c, e) with e in fuse(a, c)
    ebd = np.argwhere(N)  # rows (e, b, d)
    il, ir = _join_on(ace, [2], ebd, [0])
    t = np.column_stack([ace[il], ebd[ir][:, [1, 2]]])  # a c e b d
    cbf = np.argwhere(N)
    il, ir = _join_on(t, [1, 3], cbf, [0, 1])
    t = np.column_stack([t[il], cbf[ir][:, [2]]])  # a c e b d f
    keep = N[t[:, 0], t[:, 5], t[:, 4]].astype(bool)  # d in fuse(a, f)
    t = t[keep]
    return t[:, [0, 3, 1, 4, 2, 5]]  # a b c d e f


def hexagon_residual(N: np.ndarray, F: np.ndarray, R: np.ndarray) -> float:
    tuples = _hexagon_tuples(N)
    if len(tuples) == 0:
        return 0.0
    a, b, c, d, e, f = tuples.T
    Rt = np.ascontiguousarray(R.transpose(0, 2, 1))           # [c, d, g]
    Ft = np.ascontiguousarray(F.transpose(0, 1, 2, 3, 5, 4))  # [a,b,c,d,f,g]
    mid = F[c, a, b, d, e, :] * Ft[a, b, c, d, f, :]
    lhs = R[c, a, e] * F[a, c, b, d, e, f] * R[c, b, f]
    rhs = np.einsum("rg,rg->r", mid, Rt[c, d, :])
    worst = np.abs(lhs - rhs).max()
    lhs = np.conj(R[c, a, e]) * F[a, c, b, d, e, f] * np.conj(R[c, b, f])
    rhs = np.einsum("rg,rg->r", mid, np.conj(Rt[c, d, :]))
    return float(np.max([worst, np.abs(lhs - rhs).max()]))


def unitarity_residual(N: np.ndarray, F: np.ndarray) -> float:
    m = N.shape[0]
    adm_e = np.einsum("abe,ecd->abcde", N, N).reshape(m ** 4, m, 1)
    adm_f = np.einsum("bcf,afd->abcdf", N, N).reshape(m ** 4, m, 1)
    eye = np.eye(m)
    if not np.any(F.imag):
        F = np.ascontiguousarray(F.real)
    mats = F.reshape(m ** 4, m, m)
    adj = mats.conj().transpose(0, 2, 1)
    return float(np.max([np.abs(mats @ adj - adm_e * eye).max(),
                         np.abs(adj @ mats - adm_f * eye).max()]))
