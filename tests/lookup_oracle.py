"""Reference gather tables built by sorting and looking up whole rows.

This is the construction the local ranks of :mod:`anyonbraid.fusion_space`
replaced.  Both bases of a table are enumerated as ``(dim, n)`` chain-label
matrices (from :func:`dense_oracle._chain_trees`); every destination row is
copied once per candidate label at ``pos`` and looked up in the source
basis by integer row keys and a binary search.  Entry order, widths, padding and values are
those of the tables the library builds, so the two must agree bit for bit.
It is test-only: it allocates an ``(m dim, n)`` query matrix per table and
sorts every key.
"""

import numpy as np

import dense_oracle as dense

#: Row keys are folded in int64 and rank-compressed before they pass this.
_KEY_LIMIT = 2 ** 62


def _row_keys(m, *matrices):
    """Integer keys ordering the rows of label matrices lexicographically.

    Keys are computed jointly, so equal rows of different matrices get equal
    keys.  Labels are folded in base ``m``; whenever the next fold could
    overflow, keys are replaced by their ranks, which keeps the order.
    """
    rows = np.concatenate(matrices)
    keys = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        if len(keys) and keys.max() >= _KEY_LIMIT // m:
            keys = np.unique(keys, return_inverse=True)[1].astype(np.int64)
        keys = keys * m + col
    return np.split(keys, np.cumsum([len(a) for a in matrices])[:-1])


def _lookup(model, basis, queries):
    """Row of ``basis`` equal to each query row (0 where absent), and a
    mask of the queries that were found."""
    keys, wanted = _row_keys(model.num_charges, basis, queries)
    index = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    found = keys[index] == wanted
    return np.where(found, index, 0), found


def chains(model, leaves, total):
    """Chain-label matrix of the standard basis."""
    trees = dense._chain_trees(model, leaves, total)
    return np.array([(leaves[0], *t, total) for t in trees], dtype=np.intp).reshape(
        len(trees), len(leaves))


def local_table(model, src, dst, pos, local):
    """Gather table of an operator that rewrites chain column ``pos``, from
    source and destination chain matrices that agree outside it."""
    m = model.num_charges
    dim = len(dst)
    queries = np.repeat(dst, m, axis=0)
    queries[:, pos] = np.tile(np.arange(m), dim)
    index, found = _lookup(model, src, queries)
    value = local[dst[:, pos - 1], dst[:, pos + 1], dst[:, pos]] * found.reshape(dim, m)
    nonzero = value != 0
    width = max(int(nonzero.sum(1).max(initial=0)), 1)
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
    index = np.ascontiguousarray(np.take_along_axis(index.reshape(dim, m), order, 1).T)
    value = np.ascontiguousarray(np.take_along_axis(value, order, 1).T)
    return index, value


def pair_table(model, leaves, out_leaves, total, pos, phases):
    """Gather table of ``F^dag diag(phases) F`` on leaves ``(pos, pos+1)``,
    from the basis of ``leaves`` to that of ``out_leaves``."""
    src = chains(model, leaves, total)
    if pos == 0:
        return np.arange(len(src))[None, :], phases[src[:, 1]][None, :]
    local = np.einsum("pqxc,c,pqyc->pqxy",
                      np.conj(model.F[:, out_leaves[pos], out_leaves[pos + 1]]), phases,
                      model.F[:, leaves[pos], leaves[pos + 1]])
    return local_table(model, src, chains(model, out_leaves, total), pos, local)


def braid_table(model, leaves, total, pos, sign):
    """``(new_leaves, index, value)`` of the exchange of leaves ``(pos, pos+1)``."""
    a, b = leaves[pos], leaves[pos + 1]
    swapped = leaves[:pos] + (b, a) + leaves[pos + 2:]
    phases = model.R[a, b] if sign > 0 else np.conj(model.R[b, a])
    return (swapped, *pair_table(model, leaves, swapped, total, pos, phases))


def projector_table(model, leaves, total, pos):
    """``(present, index, value)`` of the projectors ``F^dag delta_c F`` of
    leaves ``(pos, pos+1)`` onto the channels ``present`` that some row
    carries, stacked along axis 1 and zero-padded to the widest."""
    channels = np.flatnonzero(model.N[leaves[pos], leaves[pos + 1]])
    tables = []
    for c in channels:
        delta = np.zeros(model.num_charges, dtype=complex)
        delta[c] = 1
        tables.append(pair_table(model, leaves, leaves, total, pos, delta))
    kept = [k for k, (_, value) in enumerate(tables) if value.any()]
    width = max(len(tables[k][0]) for k in kept)
    shape = (width, len(kept), tables[0][0].shape[1])
    index, value = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=complex)
    for slot, k in enumerate(kept):
        table_index, table_value = tables[k]
        index[:len(table_index), slot] = table_index
        value[:len(table_value), slot] = table_value
    return channels[kept], index, value


def attach_pair_amps(state, position, a):
    """Amplitudes of ``attach_pair(state, position, a)``, placed by lookup."""
    model = state.model
    ca = model.charge(a).index
    cab = model.dual(ca).index
    new_leaves = state.leaves[:position] + (ca, cab) + state.leaves[position:]
    new_basis = chains(model, new_leaves, state.total)
    out = np.zeros(len(new_basis), dtype=complex)
    old = chains(model, state.leaves, state.total)
    y = old[:, position - 1] if position else np.zeros(len(old), dtype=np.intp)
    for z in range(model.num_charges):
        amp = np.conj(model.F[y, ca, cab, y, z, 0]) * model.N[y, ca, z]
        keep = amp != 0
        rows = np.column_stack([old[keep, :position],
                                np.full(int(keep.sum()), z, dtype=np.intp),
                                y[keep], old[keep, position:]])
        index, _ = _lookup(model, new_basis, rows)
        out[index] += amp[keep] * state.amps[keep]
    return new_leaves, out
