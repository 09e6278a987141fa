"""Reference pentagon check: one row per admissible index tuple.

This is the table-of-tuples formulation the streaming check in
:func:`anyonbraid.model._pentagon_residual` replaced.  It joins the fusion
triples into the full 9-column table of pentagon tuples and evaluates every
equation with the same per-tuple arithmetic, so the two must report the same
tuple set and bit-identical residuals.  It is test-only: at su2_k k=11 the
table has 2,987,920 rows and a traced peak near 800 MB.

The relational join it enumerates with is its own, independent of the
F-admissibility mask the library reads its index sets from.
"""

import numpy as np


def _expand_ranges(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (lo[i] + j, i) for every i and every j < counts[i]."""
    total = int(counts.sum())
    i = np.repeat(np.arange(len(lo)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(lo, counts) + offsets, i


def _join_keys(small: np.ndarray, big: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matching row-index pairs (i_small, i_big) for equal key values."""
    order = np.argsort(small, kind="stable")
    sorted_small = small[order]
    lo = np.searchsorted(sorted_small, big, side="left")
    hi = np.searchsorted(sorted_small, big, side="right")
    i_sorted, i_big = _expand_ranges(lo, hi - lo)
    return order[i_sorted], i_big


def _join_on(left: np.ndarray, left_cols, right: np.ndarray, right_cols) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (il, ir) of the inner join of two integer tables on
    the key columns ``left_cols`` and ``right_cols``, sorting whichever
    side is smaller."""
    lk = left[:, left_cols[0]].astype(np.int64)
    rk = right[:, right_cols[0]].astype(np.int64)
    for lc, rc in zip(left_cols[1:], right_cols[1:]):
        span = int(max(left[:, lc].max(initial=0), right[:, rc].max(initial=0))) + 1
        lk = lk * span + left[:, lc]
        rk = rk * span + right[:, rc]
    if len(lk) <= len(rk):
        return _join_keys(lk, rk)
    ir, il = _join_keys(rk, lk)
    return il, ir


def pentagon_tuples(N: np.ndarray) -> np.ndarray:
    """All admissible pentagon index tuples, columns (a, b, f, c, g, d, e, l, k).

    Admissibility: f in ab, g in fc, e in gd, l in cd, k in bl and e in ak.
    """
    triples = np.argwhere(N)  # rows (x, y, z) with z in fuse(x, y)
    abf = triples
    fcg = triples
    il, ir = _join_on(abf, [2], fcg, [0])
    t = np.column_stack([abf[il][:, [0, 1, 2]], fcg[ir][:, [1, 2]]])  # a b f c g
    gde = triples
    il, ir = _join_on(t, [4], gde, [0])
    t = np.column_stack([t[il], gde[ir][:, [1, 2]]])  # a b f c g d e
    cdl = triples
    il, ir = _join_on(t, [3, 5], cdl, [0, 1])
    t = np.column_stack([t[il], cdl[ir][:, [2]]])  # a b f c g d e l
    blk = triples
    il, ir = _join_on(t, [1, 7], blk, [0, 1])
    t = np.column_stack([t[il], blk[ir][:, [2]]])  # a b f c g d e l k
    keep = N[t[:, 0], t[:, 8], t[:, 6]].astype(bool)  # e in fuse(a, k)
    return t[keep]


def pentagon_residual(N: np.ndarray, F: np.ndarray, chunk: int = 262144) -> float:
    tuples = pentagon_tuples(N)
    if len(tuples) == 0:
        return 0.0
    if not np.any(F.imag):
        F = np.ascontiguousarray(F.real)  # halves the gather traffic
    # h appears in all three right-hand factors; transposed copies put the
    # h axis last so each gather is one contiguous slab per row.
    F2 = np.ascontiguousarray(F.transpose(0, 2, 3, 4, 5, 1))  # [a,d,e,g,k,h]
    F3 = np.ascontiguousarray(F.transpose(0, 1, 2, 3, 5, 4))  # [b,c,d,k,l,h]
    worst = 0.0
    for start in range(0, len(tuples), chunk):
        a, b, f, c, g, d, e, l, k = tuples[start:start + chunk].T
        lhs = F[f, c, d, e, g, l] * F[a, b, l, e, f, k]
        rhs = np.einsum("rh,rh,rh->r", F[a, b, c, g, f, :], F2[a, d, e, g, k, :],
                        F3[b, c, d, k, l, :])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
