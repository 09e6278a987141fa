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

The ``dense_*`` functions are the residuals as the library computed them
on a dense ``(m,) * 6`` F, before F was stored as its admissible rows: the
pentagon gathers from F and from an h-last copy of it, and unitarity adds
the largest ``|F|`` off the admissible set, scanned one charge at a time.
The library reads the same operands, zeros included, from padded tables
of F's entries, so every residual must agree bit for bit.

The pentagon's trees come from :func:`tree_rows`, the builder the library
used before it read the right trees off the left ones: both bases are
extended by one fusion triple each and sorted by their outer labels on
their own, and :func:`equal_blocks` finds their runs by comparing rows.
"""

import numpy as np

from anyonbraid.model import _BLOCK, _admissible_blocks, _blocks, _ravel, _worst
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


def _with_triples(rows: np.ndarray, key: np.ndarray, N: np.ndarray) -> np.ndarray:
    """``rows`` with each row repeated once per fusion triple (x, y, z),
    z in xy, whose x is the row's ``key``, and y, z appended."""
    triples = np.argwhere(N).astype(np.uint8)  # sorted by x
    per_x = np.bincount(triples[:, 0], minlength=N.shape[0])
    counts = per_x[key]
    start = np.cumsum(per_x) - per_x
    # the p-th copy of a row takes triple start[key] + p
    j = np.arange(counts.sum()) + np.repeat(start[key] - np.cumsum(counts) + counts, counts)
    return np.column_stack([np.repeat(rows, counts, axis=0), triples[j, 1:]])


def tree_rows(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both bases of the fusion space of four charges a, b, c, d into e.

    Left trees ((ab)_f c)_g d -> e are rows (a, b, c, d, e, f, g) with f in
    ab, g in fc and e in gd; right trees a(b(cd)_l)_k -> e are rows
    (a, b, c, d, e, l, k) with l in cd, k in bl and e in ak.  Their inner
    vertices are the admissible rows ``[F_g^{abc}]_{f.}`` and columns
    ``[F_k^{bcd}]_{.l}``.  Both come sorted by their outer labels
    (a, b, c, d, e).  Fusion is associative, so both bases of a space have
    the same dimension, and the trees of one outer label sit at the same
    rows of both tables.
    """
    m = N.shape[0]
    rows, columns = _admissible_blocks(N)
    t = np.argwhere(rows).astype(np.uint8)  # a b c g f
    left = _with_triples(t, t[:, 3], N)[:, [0, 1, 2, 5, 6, 4, 3]]  # + d e
    t = np.argwhere(columns).astype(np.uint8)  # b c d k l
    right = _with_triples(t, t[:, 3], N)[:, [5, 0, 1, 2, 6, 4, 3]]  # + a e

    def by_outer(trees):
        return trees[np.argsort(_ravel(m, *trees[:, :5].T), kind="stable")]

    return by_outer(left), by_outer(right)


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row and length D of each key of ``keys``, an ``(n, q)`` table
    whose equal rows are adjacent."""
    starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    return starts, np.diff(np.r_[starts, len(keys)])


def equal_blocks(keys: np.ndarray, chunk: int = _BLOCK):
    """The library's blocks (:func:`anyonbraid.model._blocks`) of the
    :func:`runs` of ``keys``."""
    return _blocks(*runs(keys), chunk)


def _real_if_real(F: np.ndarray) -> np.ndarray:
    """``F``, or a view of its real part when no entry has an imaginary
    part; real arithmetic halves the memory traffic of the gathers and
    products, and the view copies nothing."""
    return F if np.any(F.imag) else F.real


def dense_pentagon_residual(N: np.ndarray, F: np.ndarray, chunk: int = _BLOCK) -> float:
    """Worst residual of the pentagon equation

    ``[F_e^{fcd}]_{gl} [F_e^{abl}]_{fk}
    = sum_h [F_g^{abc}]_{fh} [F_e^{ahd}]_{gk} [F_k^{bcd}]_{hl}``

    over every pair of a left and a right fusion tree on the same outer
    labels.  The D left and D right trees of one outer label give a D x D
    block of equations, and blocks of equal D are walked as ``(G, D, D)``
    arrays of about ``chunk`` equations.  Each tree keeps only int32
    offsets into F: the row ``[F_g^{abc}]_{f.}`` is gathered once per left
    tree and the column ``[F_k^{bcd}]_{.l}`` once per right tree, the
    middle factor once per pair from a copy of F with h last, and every
    sum runs over ascending h.
    """
    m = N.shape[0]
    left, right = tree_rows(N)
    F = _real_if_real(F)
    flat = F.reshape(-1)
    rows = F.reshape(-1, m)                                                   # [a,b,c,g,f,h]
    mid = np.ascontiguousarray(F.transpose(0, 2, 3, 4, 5, 1)).reshape(-1, m)  # [a,d,e,g,k,h]
    column = np.arange(0, m * m, m, dtype=np.int32)                           # h m
    a, b, c, d, e, f, g = left.T
    left_row = _ravel(m, a, b, c, g, f)       # [F_g^{abc}]_{f.}
    left_fcd = _ravel(m, f, c, d, e, g, 0)    # + l
    left_abl = _ravel(m, a, b, 0, e, f, 0)    # + l m^3 + k
    left_mid = _ravel(m, a, d, e, g, 0)       # + k
    a, b, c, d, e, l, k = right.T
    right_col = _ravel(m, b, c, d, k, 0, l)   # [F_k^{bcd}]_{.l}, + h m
    right_abl = _ravel(m, 0, 0, l, 0, 0, k)
    worst = 0.0
    for trees in equal_blocks(left[:, :5], chunk):
        il, ir = trees[:, :, None], trees[:, None, :]
        lhs = flat[left_fcd[il] + l[ir]] * flat[left_abl[il] + right_abl[ir]]
        rhs = np.einsum("gih,gijh,gjh->gij", rows[left_row[trees]],
                        mid.take(left_mid[il] + k[ir], axis=0),
                        flat[right_col[trees][:, :, None] + column])
        worst = _worst(worst, np.abs(lhs - rhs).max())
    return worst


def dense_block_residuals(N: np.ndarray, F: np.ndarray, R: np.ndarray) -> tuple[float, float]:
    """Worst residuals of both hexagon equations and of F-unitarity, in one
    walk over the admissible blocks of the F-matrices.

    The block of ``F_d^{abc}`` holds its admissible rows ``e`` and columns
    ``f``, and blocks of equal D are walked as ``(G, D, D)`` arrays.  Each
    block must be unitary, checked as both ``F F^+`` and ``F^+ F``; unitarity
    adds the largest ``|F|`` off the admissible set, where F must vanish.
    Each entry ``(a, b, c, d, e, f)`` of a block is the hexagon tuple
    ``(a, c, b, d, e, f)``: e in ac, d in eb, f in cb and d in af.
    """
    m = N.shape[0]
    rows, columns = _admissible_blocks(N)
    es, fs = np.argwhere(rows), np.argwhere(columns)
    Fu = _real_if_real(F)
    # One hexagon per chirality: R and its inverse must both recouple
    # consistently with F.  Each R comes with its copy [c, d, g].
    chiralities = [(S, np.ascontiguousarray(S.transpose(0, 2, 1))) for S in (R, np.conj(R))]
    hexagon = unitarity = 0.0
    for at in equal_blocks(es[:, :4]):
        a, b, c, d = es[at[:, 0], :4].T[:, :, None, None]
        e, f = es[at, 4][:, :, None], fs[at, 4][:, None, :]
        mats = Fu[a, b, c, d, e, f]
        adj = mats.conj().transpose(0, 2, 1)
        eye = np.eye(at.shape[1])
        unitarity = _worst(unitarity, np.abs(mats @ adj - eye).max(),
                           np.abs(adj @ mats - eye).max())
        # the block's entries, one per row, as hexagon tuples
        a, c, b, d, e, f = (np.broadcast_to(x, mats.shape).ravel() for x in (a, b, c, d, e, f))
        mid = F[c, a, b, d, e, :] * F[a, b, c, d, :, f]
        for S, St in chiralities:
            lhs = S[c, a, e] * F[a, c, b, d, e, f] * S[c, b, f]
            rhs = np.einsum("rg,rg->r", mid, St[c, d, :])
            hexagon = _worst(hexagon, np.abs(lhs - rhs).max())
    # one charge a at a time, so no temporary is the size of F
    off = _worst(*(np.abs(Fu[x][~(rows[x][..., None] & columns[x][..., None, :])]).max(initial=0.0)
                   for x in range(m)))
    return hexagon, unitarity + off



def dense_vacuum_probability_residual(model, F: np.ndarray) -> float:
    """``AnyonModel.vacuum_probability_residual`` read from a dense F."""
    worst = 0.0
    for a in range(model.num_charges):
        ab = model.dual(a).index
        da2 = model.qd[a] ** 2
        for e in np.flatnonzero(model.N[a, ab]):
            got = abs(F[a, ab, a, a, e, 0]) ** 2
            worst = max(worst, abs(got - model.qd[e] / da2))
    return worst
