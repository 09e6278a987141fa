"""Pair gather tables built per call, neighbourhood by neighbourhood.

This is the construction :func:`anyonbraid.fusion_space._pair_tables` had
before it read its per-model kernel: every call works out, on the
neighbourhoods its destination basis holds, the local values (one
``einsum`` over all of them), which source labels a row holds, the nonzero
counts and the stable slot order.  It takes the phases and destination
leaves as arrays, so a test can hand it any pair operator.  Entry order,
widths, padding and values are those of the library's tables, so the two
must agree bit for bit.
"""

import numpy as np

from anyonbraid.fusion_space import _basis, _ranks


def pair_tables(model, leaves, total, pos, phases, out_leaves):
    """Gather tables ``(index, value)`` of ``F^-1 diag(phi) F`` on leaves
    ``(pos, pos+1)``, one per row ``phi`` of the ``(P, m)`` array
    ``phases``, stacked as two arrays of shape ``(w, P, dim)`` over the
    basis of ``out_leaves``."""
    if pos == 0:
        labels = _basis(model, leaves, total)[:, 1]
        return np.tile(np.arange(len(labels)), (1, len(phases), 1)), phases[None][..., labels]
    dst = _basis(model, out_leaves, total)
    _, src_terms = _ranks(model, leaves, total)
    _, dst_terms = _ranks(model, out_leaves, total)
    m = model.num_charges
    site = np.ravel_multi_index((dst[:, pos], dst[:, pos - 1], dst[:, pos + 1]), (m,) * 3)
    occurs = np.bincount(site, minlength=m ** 3) != 0
    hood = (np.cumsum(occurs) - 1)[site]
    x, p, q = np.unravel_index(np.flatnonzero(occurs), (m,) * 3)
    found = (model.N[p, leaves[pos]].T != 0) & (model.N[:, leaves[pos + 1], q] != 0)
    offset = (src_terms[pos][p].T + src_terms[pos + 1][:, q]
              - dst_terms[pos][p, x] - dst_terms[pos + 1][x, q])
    F_out = np.conj(model.f_rows(slice(None), out_leaves[pos], out_leaves[pos + 1]))
    F_in = model.f_rows(slice(None), leaves[pos], leaves[pos + 1])
    value = np.einsum("pqxc,kc,pqyc->kpqxy", F_out, phases, F_in)[:, p, q, x]
    value = value.transpose(2, 0, 1) * found[:, None]
    nonzero = value != 0
    widths = nonzero.sum(0).max(1, initial=1)
    order = np.argsort(~nonzero, axis=0, kind="stable")[:widths.max()]
    pad = np.arange(len(order))[:, None, None] >= widths[:, None]
    col = np.arange(len(x))
    index = offset[order, col].take(hood, axis=2)
    index += np.arange(len(dst))
    index *= (found[order, col] & ~pad).take(hood, axis=2)
    value = np.where(pad, 0, value[order, np.arange(len(phases))[:, None], col])
    return index, value.take(hood, axis=2)


def braid_tables(model, leaves, total, pos, sign):
    """The one-phase stack of the exchange of leaves ``(pos, pos+1)``."""
    a, b = leaves[pos], leaves[pos + 1]
    phases = model.R[a, b] if sign > 0 else np.conj(model.R[b, a])
    swapped = leaves[:pos] + (b, a) + leaves[pos + 2:]
    return pair_tables(model, leaves, total, pos, phases[None], swapped)


def projector_tables(model, leaves, total, pos):
    """The stack of projectors of leaves ``(pos, pos+1)`` onto every
    channel of their fusion, ascending, empty channels included."""
    channels = np.flatnonzero(model.N[leaves[pos], leaves[pos + 1]])
    deltas = np.identity(model.num_charges, dtype=complex)[channels]
    return pair_tables(model, leaves, total, pos, deltas, leaves)
