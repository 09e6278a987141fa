"""States of n anyons over the standard fusion-chain basis.

A state is a unit-norm complex amplitude vector over the left-canonical
fusion chain: leaves ``l_0, ..., l_{n-1}`` fuse in order,

    y_0 = l_0,  y_j in fuse(y_{j-1}, l_j),  y_{n-1} = total,

and a basis row is fixed by its free internal labels ``(y_1, ..., y_{n-2})``.
Rows are enumerated in lexicographic order of the internal labels, which
fixes the basis indexing.  A basis is stored as its ``(dim, n)`` matrix of
chain labels ``(y_0, ..., y_{n-1})``, one row per basis state.

All kets are orthonormal and all public operations keep states unit-norm:
the diagrammatic normalization prefactors of the underlying formalism are
absorbed into the isometry definitions here, so Born probabilities and
fidelities are unchanged while phase bookkeeping stays explicit.  No
operation bends a charge line through a cup or cap.

Operators are local.  The F-move resolving pair ``(pos, pos+1)`` and the
elementary braid of those leaves rewrite only chain label ``y_pos``, with
matrix elements that depend on its neighbours ``y_{pos-1}, y_{pos+1}``.
The F-move is internal: it takes a state into the basis where the pair
carries an explicit collective charge, for a measurement or a braid, and
back.  Each is stored, per model and basis, as a row-gather table
``(index, value)``: output row ``r`` is ``sum_k value[k, r] *
amps[index[k, r]]``, with ``k`` running over at most the number of charges
``m``.  Both arrays have shape ``(w, dim)``, slot-major so that applying a
table, ``(value * amps[index]).sum(0)``, reduces over contiguous rows.  A
table costs O(dim * m) memory and time; no operator is ever a dim x dim
matrix.  Composite operators (transport of a charge line, non-adjacent
measurement, the quad-braid oracle) are sequences of such tables, applied
in turn and never multiplied out.  The same tables act on a batch of
states stored as ``(dim, T)`` columns.

States are immutable; operations return new states, so independent Monte
Carlo trials can fan out across workers freely.
"""

from __future__ import annotations

import json
import math
import numpy as np

from .errors import BasisMismatch, InvalidPosition, UnknownChargeError
from .model import AnyonModel, Charge

#: Unit-norm tolerance enforced on construction.
NORM_TOL = 1e-9

#: Row keys are folded in int64 and rank-compressed before they pass this.
_KEY_LIMIT = 2 ** 62


class StateVector:
    """Normalized amplitudes over the standard fusion-chain basis, whose
    ``(dim, n)`` chain-label matrix is ``chains``."""

    __slots__ = ("model", "leaves", "total", "chains", "amps")

    def __init__(self, model, leaves, total, amps, _chains=None):
        # ``_chains`` is passed internally, with leaves and total already
        # given as charge indices.
        if _chains is None:
            leaves = tuple(model.charge(l).index for l in leaves)
            total = model.charge(total).index
            _chains = _basis(model, leaves, total)
        self.model = model
        self.leaves = leaves
        self.total = total
        self.chains = _chains
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if len(amps) != len(self.chains):
            raise BasisMismatch(
                f"expected {len(self.chains)} amplitudes, got {len(amps)}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |amps| = {norm}")
        # Stored as given (not re-divided) so that text dumps round-trip
        # bit-exactly; every operation renormalizes explicitly where needed.
        self.amps = amps
        self.amps.flags.writeable = False

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    @property
    def dim(self) -> int:
        return len(self.chains)

    def leaf_charges(self) -> tuple[Charge, ...]:
        return tuple(self.model.charges[i] for i in self.leaves)

    def _replace_amps(self, amps) -> "StateVector":
        return StateVector(self.model, self.leaves, self.total, amps, _chains=self.chains)

    def __repr__(self) -> str:
        leaves = ",".join(self.model.labels[i] for i in self.leaves)
        return (f"StateVector({self.model.name}; leaves=[{leaves}]; "
                f"total={self.model.labels[self.total]}; dim={self.dim})")


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------


def _basis(model, leaves, total, pos=0):
    """Chain-label matrix of the standard basis (``pos = 0``) or of the
    basis where pair ``(pos, pos+1)`` has an explicit channel.

    In the resolved basis column ``pos`` holds the pair charge ``c``; the
    chain constraint becomes ``c in fuse(l_pos, l_{pos+1})`` with the next
    chain label fusing from the charge before the pair.  ``pos = 0``
    coincides with the standard basis.  Rows are in lexicographic order.
    """
    key = ("basis", leaves, total, pos)
    hit = model._cache.get(key)
    if hit is not None:
        return hit
    n = len(leaves)
    if n < 2:
        reachable = int(total == (leaves[0] if n else 0))
        rows = np.tile(np.array(leaves, dtype=np.intp), (reachable, 1))
    else:
        N = model.N
        rows = np.array([[leaves[0]]], dtype=np.intp)
        for j in range(1, n):
            if pos and j == pos:
                allowed = np.broadcast_to(N[leaves[j], leaves[j + 1]],
                                          (len(rows), model.num_charges))
            elif pos and j == pos + 1:
                allowed = N[rows[:, -2], rows[:, -1]]
            else:
                allowed = N[rows[:, -1], leaves[j]]
            if j < n - 1:
                # row-major nonzero keeps parents in order, children ascending
                parent, child = np.nonzero(allowed)
                rows = np.column_stack([rows[parent], child])
            else:
                rows = rows[allowed[:, total] != 0]
                rows = np.column_stack([rows, np.full(len(rows), total, dtype=np.intp)])
    rows.flags.writeable = False
    model._cache[key] = rows
    return rows


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


# ---------------------------------------------------------------------------
# Local operators: row-gather tables.
# ---------------------------------------------------------------------------


def _local_table(model, src, dst, pos, local):
    """Gather table of an operator that rewrites chain column ``pos``.

    ``src`` and ``dst`` are the chain matrices of the input and output
    bases; they agree outside column ``pos``.  ``local[p, q, x, y]`` is the
    amplitude sent from label ``y`` to label ``x`` at ``pos`` between the
    neighbours ``p`` (column ``pos - 1``) and ``q`` (column ``pos + 1``).
    Entries that vanish are dropped, so the width ``w`` is the largest
    number of labels any output row draws from.  Returns ``(index, value)``
    of shape ``(w, dim)``.
    """
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
    index.flags.writeable = False
    value.flags.writeable = False
    return index, value


def _gather(table, amps):
    """Apply one gather table to amplitudes of shape ``(dim,)`` or ``(dim, T)``."""
    index, value = table
    if amps.ndim == 1:
        out = amps[index]
    else:  # ``take`` gathers the rows of a batch faster than indexing
        out = amps.take(index, axis=0)
        value = value[:, :, None]
    out *= value
    return np.add.reduce(out, 0)


def _gather_all(tables, amps):
    """Apply a sequence of gather tables, first to last."""
    for table in tables:
        amps = _gather(table, amps)
    return amps


def _f_move_table(model, leaves, total, pos, inverse=False):
    """Gather table of the F-move resolving pair ``(pos, pos+1)``, ``pos >= 1``.

    The forward table maps standard amplitudes into the resolved basis,
    ``res[.., p, c, q, ..] = sum_e F^{p a b}_q[e, c] std[.., p, e, q, ..]``;
    ``inverse=True`` gives its adjoint, from the resolved basis back.
    """
    key = ("f_move", leaves, total, pos, inverse)
    hit = model._cache.get(key)
    if hit is not None:
        return hit
    F = model.F[:, leaves[pos], leaves[pos + 1]]  # [before, after, e, c]
    std = _basis(model, leaves, total)
    res = _basis(model, leaves, total, pos)
    if inverse:
        table = _local_table(model, res, std, pos, np.conj(F))
    else:
        table = _local_table(model, std, res, pos, F.transpose(0, 1, 3, 2))
    model._cache[key] = table
    return table


def _pair_channels(model, leaves, total, pos):
    """Per-row collective charge of pair ``(pos, pos+1)`` in its resolved basis."""
    return _basis(model, leaves, total, pos)[:, max(pos, 1)]


# ---------------------------------------------------------------------------
# Braids.
# ---------------------------------------------------------------------------


def _braid_table(model, leaves, total, pos, sign):
    """Gather table of the elementary exchange of leaves (pos, pos+1).

    Returns ``(new_leaves, index, value)``.  The exchange is ``F^-1 R F``:
    resolve the pair, multiply each channel ``c`` by ``R_c^{ab}``
    (``sign=+1``, counterclockwise) or ``conj(R_c^{ba})`` (``sign=-1``),
    and unresolve with the leaves swapped.  At ``pos = 0`` the pair channel
    is already a chain label, so the table is diagonal.  The adjoint is the
    opposite-sign table of the swapped leaves.
    """
    key = ("braid", leaves, total, pos, sign)
    hit = model._cache.get(key)
    if hit is not None:
        return hit
    a, b = leaves[pos], leaves[pos + 1]
    swapped = leaves[:pos] + (b, a) + leaves[pos + 2:]
    phases = model.R[a, b] if sign > 0 else np.conj(model.R[b, a])
    src = _basis(model, leaves, total)
    if pos == 0:
        index = np.arange(len(src))[None, :]
        value = phases[src[:, 1]][None, :]
    else:
        local = np.einsum("pqxc,c,pqyc->pqxy", np.conj(model.F[:, b, a]), phases,
                          model.F[:, a, b])
        index, value = _local_table(model, src, _basis(model, swapped, total), pos, local)
    model._cache[key] = (swapped, index, value)
    return swapped, index, value


def apply_braid(state: StateVector, pos: int, sign: int = +1) -> StateVector:
    """Exchange adjacent leaves ``pos`` and ``pos + 1``.

    ``sign=+1`` applies the counterclockwise crossing, ``sign=-1`` the
    clockwise one; the two compose to the identity.
    """
    n = state.num_leaves
    if not 0 <= pos <= n - 2:
        raise InvalidPosition(f"no adjacent pair at {pos} for {n} leaves")
    if sign not in (+1, -1):
        raise ValueError("braid sign must be +1 or -1")
    new_leaves, index, value = _braid_table(state.model, state.leaves, state.total, pos, sign)
    return StateVector(state.model, new_leaves, state.total,
                       _gather((index, value), state.amps))


def _transport(model, leaves, total, i, j, routing="over"):
    """Composite braid that carries leaf ``j`` to position ``i + 1``.

    Returns ``(new_leaves, forward, backward)``: the gather tables of the
    transport ``T`` and of ``T^dag`` (transporting back), each in
    application order.  With ``routing="over"`` every crossing on the way is
    the counterclockwise (+1) elementary braid; ``"under"`` uses the inverse
    crossings.
    """
    if routing not in ("over", "under"):
        raise ValueError(f"routing must be 'over' or 'under', got {routing!r}")
    sign = +1 if routing == "over" else -1
    cur = leaves
    forward, backward = [], []
    for pos in range(j - 1, i, -1):
        moved, index, value = _braid_table(model, cur, total, pos, sign)
        _, back_index, back_value = _braid_table(model, moved, total, pos, -sign)
        forward.append((index, value))
        backward.append((back_index, back_value))
        cur = moved
    return cur, forward, backward[::-1]


# ---------------------------------------------------------------------------
# Inner products and pair attachment.
# ---------------------------------------------------------------------------


def inner(s1: StateVector, s2: StateVector) -> complex:
    """Hermitian inner product ``<s1|s2>`` of two same-basis states."""
    if s1.model is not s2.model:
        raise BasisMismatch("states belong to different models")
    if (s1.leaves, s1.total) != (s2.leaves, s2.total):
        raise BasisMismatch("states are expressed over different bases")
    return complex(np.vdot(s1.amps, s2.amps))


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """Overlap magnitude ``|<s1|s2>|``; 1 means equal up to a global phase."""
    return abs(inner(s1, s2))


def attach_pair(state: StateVector, position: int, a) -> StateVector:
    """Insert a vacuum-channel pair ``(a, dual a)`` at the given leaf position.

    The inserted pair becomes leaves ``position`` and ``position + 1`` of the
    result, re-expressed in the standard chain basis by one F-move per
    branch.  The map is an isometry, so the norm is preserved.
    """
    model = state.model
    n = state.num_leaves
    if not 0 <= position <= n:
        raise InvalidPosition(f"attach position {position} out of range 0..{n}")
    ca = model.charge(a).index
    cab = model.dual(ca).index
    new_leaves = state.leaves[:position] + (ca, cab) + state.leaves[position:]
    new_basis = _basis(model, new_leaves, state.total)
    out = np.zeros(len(new_basis), dtype=complex)
    chains = state.chains
    y = chains[:, position - 1] if position else np.zeros(len(chains), dtype=np.intp)
    for z in range(model.num_charges):
        amp = np.conj(model.F[y, ca, cab, y, z, 0]) * model.N[y, ca, z]
        keep = amp != 0
        # The running charge goes y -> z (absorb a) -> y (absorb dual a)
        # and the rest of the chain is untouched.
        rows = np.column_stack([chains[keep, :position],
                                np.full(int(keep.sum()), z, dtype=np.intp),
                                y[keep], chains[keep, position:]])
        index, _ = _lookup(model, new_basis, rows)
        out[index] += amp[keep] * state.amps[keep]
    return StateVector(model, new_leaves, state.total, out, _chains=new_basis)


# ---------------------------------------------------------------------------
# Elementary states.
# ---------------------------------------------------------------------------


def empty_state(model: AnyonModel) -> StateVector:
    """The zero-anyon vacuum register."""
    return StateVector(model, (), 0, [1.0])


def entangled_pair_state(model: AnyonModel, a) -> StateVector:
    """The particle-antiparticle pair ``(a, dual a)`` in the vacuum channel."""
    ca = model.charge(a)
    return StateVector(model, (ca.index, model.dual(ca).index), 0, [1.0])


def random_state(model: AnyonModel, leaves, total, rng) -> StateVector:
    """Haar-like random state: iid complex normal amplitudes, normalized."""
    leaf_idx = tuple(model.charge(l).index for l in leaves)
    dim = len(_basis(model, leaf_idx, model.charge(total).index))
    if not dim:
        raise ValueError("empty basis: total charge unreachable")
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(model, leaves, total, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# Serialization: bit-exact text round-trip at double precision.
# ---------------------------------------------------------------------------


def _internals(chains) -> list:
    """Internal labels ``(y_1, ..., y_{n-2})`` of each chain row, as lists."""
    return chains[:, 1:chains.shape[1] - 1].tolist()


def state_to_json(state: StateVector) -> str:
    """Dump leaves, total and (internal labels, re, im) rows as JSON text."""
    labels = state.model.labels
    rows = [
        {"internals": [labels[i] for i in internals],
         "re": float(z.real), "im": float(z.imag)}
        for internals, z in zip(_internals(state.chains), state.amps)
    ]
    return json.dumps({
        "model": state.model.name,
        "params": state.model.params,
        "leaves": [labels[i] for i in state.leaves],
        "total": labels[state.total],
        "amplitudes": rows,
    }, indent=2)


def state_from_json(model: AnyonModel, text: str) -> StateVector:
    """Rebuild a state dumped by :func:`state_to_json` against ``model``."""
    data = json.loads(text)
    leaves = tuple(model.charge(l).index for l in data["leaves"])
    total = model.charge(data["total"]).index
    chains = _basis(model, leaves, total)
    idx = {tuple(internals): n for n, internals in enumerate(_internals(chains))}
    amps = np.zeros(len(chains), dtype=complex)
    for row in data["amplitudes"]:
        internals = tuple(model.charge(l).index for l in row["internals"])
        if internals not in idx:
            raise UnknownChargeError(f"row {row['internals']} is not an admissible tree")
        amps[idx[internals]] = row["re"] + 1j * row["im"]
    return StateVector(model, leaves, total, amps, _chains=chains)
