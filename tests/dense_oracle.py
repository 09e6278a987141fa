"""Dense reference operators for the local fusion-chain kernel.

These builders construct every operator as an explicit dim x dim matrix:
the pair-resolving F-move ``U``, the channel projector
``U^dag delta_c U``, the elementary braid ``B = Us^dag R U``, transports
as products of braids and the quad-braid oracle ``T^dag B T``.
They are the reference the local gather tables of
:mod:`anyonbraid.fusion_space` are checked against, together with the
depth-first basis enumeration they index, whose rows are tuples of
internal chain labels.  They are test-only: memory is
O(dim^2) and construction O(dim^3).

Each model gets its own cache here, kept apart from ``model._cache``.
"""

import weakref

import numpy as np

_CACHES = weakref.WeakKeyDictionary()


def _cache(model):
    return _CACHES.setdefault(model, {})


def _chain_trees(model, leaves, total):
    key = ("basis", leaves, total)
    hit = _cache(model).get(key)
    if hit is not None:
        return hit
    n = len(leaves)
    if n == 0:
        trees = ((),) if total == 0 else ()
    elif n == 1:
        trees = ((),) if leaves[0] == total else ()
    else:
        chains = [(leaves[0],)]
        for j in range(1, n):
            allowed = model.N[:, leaves[j], :]
            if j < n - 1:
                chains = [c + (int(y),) for c in chains for y in np.flatnonzero(allowed[c[-1]])]
            else:
                chains = [c for c in chains if allowed[c[-1], total]]
        trees = tuple(c[1:] for c in chains)
    _cache(model)[key] = trees
    return trees


def _resolved_trees(model, leaves, total, pos):
    """Trees of the basis where pair (pos, pos+1) has an explicit channel.

    The internal slot at ``pos`` holds the pair charge ``c``; the chain
    constraint becomes ``c in fuse(l_pos, l_{pos+1})`` with the next chain
    label fusing from the charge before the pair.  ``pos = 0`` coincides
    with the standard basis.
    """
    key = ("rbasis", leaves, total, pos)
    hit = _cache(model).get(key)
    if hit is not None:
        return hit
    n = len(leaves)
    if pos == 0:
        trees = _chain_trees(model, leaves, total)
    else:
        chains = [(leaves[0],)]
        for j in range(1, n):
            new = []
            for c in chains:
                if j == pos:
                    options = np.flatnonzero(model.N[leaves[j], leaves[j + 1]])
                elif j == pos + 1:
                    options = np.flatnonzero(model.N[c[-2], c[-1]])
                else:
                    options = np.flatnonzero(model.N[c[-1], leaves[j]])
                for y in options:
                    if j < n - 1 or y == total:
                        new.append(c + (int(y),))
            chains = new
        trees = tuple(c[1:n - 1] for c in chains)
    _cache(model)[key] = trees
    return trees


def basis_index(trees) -> dict:
    return {t: i for i, t in enumerate(trees)}


def _resolve_matrix(model, leaves, total, pos):
    """Unitary U with amps_resolved = U @ amps_standard for pair (pos, pos+1)."""
    key = ("resolveU", leaves, total, pos)
    hit = _cache(model).get(key)
    if hit is not None:
        return hit
    std = _chain_trees(model, leaves, total)
    res = _resolved_trees(model, leaves, total, pos)
    if pos == 0:
        U = np.eye(len(std), dtype=complex)
    else:
        res_idx = basis_index(res)
        U = np.zeros((len(res), len(std)), dtype=complex)
        n = len(leaves)
        for s, tree in enumerate(std):
            chain = (leaves[0],) + tree + (total,)
            before = chain[pos - 1]
            e = chain[pos]
            after = chain[pos + 1]
            for c in np.flatnonzero(model.N[leaves[pos], leaves[pos + 1]]):
                amp = model.F[before, leaves[pos], leaves[pos + 1], after, e, c]
                if amp != 0:
                    target = tree[:pos - 1] + (int(c),) + tree[pos:]
                    U[res_idx[target], s] += amp
    _cache(model)[key] = (res, U)
    return res, U


def _pair_channels(model, leaves, total, pos):
    """Per-tree pair charge of the resolved basis at ``pos``."""
    res = _resolved_trees(model, leaves, total, pos)
    if pos == 0:
        if len(leaves) == 2:
            return res, np.array([total] * len(res))
        return res, np.array([t[0] for t in res])
    return res, np.array([t[pos - 1] for t in res])


def projector_matrix(model, leaves, total, pos, c):
    """Projector ``U^dag delta_c U`` of pair ``(pos, pos+1)`` onto channel ``c``."""
    _, channels = _pair_channels(model, leaves, total, pos)
    _, U = _resolve_matrix(model, leaves, total, pos)
    return U.conj().T @ ((channels == c)[:, None] * U)


def _braid_matrix(model, leaves, total, pos, sign):
    """Matrix of the elementary exchange of leaves (pos, pos+1).

    Returns ``(new_leaves, B)`` with ``amps_new = B @ amps``.  ``sign=+1``
    is the counterclockwise exchange (phase ``R_c^{ab}`` per pair channel);
    ``sign=-1`` is its inverse.
    """
    key = ("braid", leaves, total, pos, sign)
    hit = _cache(model).get(key)
    if hit is not None:
        return hit
    a, b = leaves[pos], leaves[pos + 1]
    swapped = leaves[:pos] + (b, a) + leaves[pos + 2:]
    _, channels = _pair_channels(model, leaves, total, pos)
    _, U = _resolve_matrix(model, leaves, total, pos)
    _, Us = _resolve_matrix(model, swapped, total, pos)
    phases = model.R[a, b, channels] if sign > 0 else np.conj(model.R[b, a, channels])
    B = Us.conj().T @ (phases[:, None] * U)
    _cache(model)[key] = (swapped, B)
    return swapped, B


def transport_matrix(model, leaves, total, i, j, routing="over"):
    """Composite braid that carries leaf ``j`` to position ``i + 1``.

    Returns ``(new_leaves, T)`` with ``T`` unitary.  With ``routing="over"``
    every crossing on the way is the counterclockwise (+1) elementary braid;
    ``"under"`` uses the inverse crossings.  Transporting back is ``T^dag``.
    """
    if routing not in ("over", "under"):
        raise ValueError(f"routing must be 'over' or 'under', got {routing!r}")
    sign = +1 if routing == "over" else -1
    key = ("transport", leaves, total, i, j, routing)
    hit = _cache(model).get(key)
    if hit is not None:
        return hit
    cur = leaves
    dim = len(_chain_trees(model, leaves, total))
    T = np.eye(dim, dtype=complex)
    for pos in range(j - 1, i, -1):
        cur, B = _braid_matrix(model, cur, total, pos, sign)
        T = B @ T
    _cache(model)[key] = (cur, T)
    return cur, T


def quad_braid_matrix(model, leaves, total, quad, sign: int, routing: str = "over"):
    """Unitary exchanging the outer leaves of a contiguous quad directly.

    The moving charge line crosses the two middle leaves per the routing
    convention on the way in and inversely on the way out, so on states
    whose middle pair carries the vacuum channel this is exactly the braid
    of the outer anyons tensored with the untouched pair.
    """
    p = quad[0]
    moved, T = transport_matrix(model, leaves, total, p, p + 3, routing)
    _, B = _braid_matrix(model, moved, total, p, sign)
    return T.conj().T @ B @ T
