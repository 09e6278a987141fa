"""States of n anyons over the standard fusion-chain basis.

A state is a unit-norm complex amplitude vector over the left-canonical
fusion chain: leaves ``l_0, ..., l_{n-1}`` fuse in order,

    y_0 = l_0,  y_j in fuse(y_{j-1}, l_j),  y_{n-1} = total,

and a basis row is fixed by its free internal labels ``(y_1, ..., y_{n-2})``.
Rows are enumerated in lexicographic order of the internal labels, which
fixes the basis indexing.  A basis is stored as its ``(dim, n)`` matrix of
chain labels ``(y_0, ..., y_{n-1})``, one row per basis state, as
:data:`LABEL` charge indices.

A row's index is a sum of per-column terms, the ranking of paths in the
fusion DAG: with ``counts[j, y]`` the number of ways to complete a chain
holding ``y`` in column ``j``, column ``j`` adds the completions of all
smaller labels it could have held, ``terms[j, y_{j-1}, y_j]``.  The suffix
counts give a register's dimension before anything is enumerated, so a
register over :data:`MAX_LEAVES` leaves or :data:`MAX_DIM` basis states is
refused with :class:`~anyonbraid.errors.RegisterTooLarge` up front.

All kets are orthonormal and all public operations keep states unit-norm:
the diagrammatic normalization prefactors of the underlying formalism are
absorbed into the isometry definitions here, so Born probabilities and
fidelities are unchanged while phase bookkeeping stays explicit.  No
operation bends a charge line through a cup or cap.

Operators are local.  The elementary braid of leaves ``(pos, pos+1)`` and
the projector of that pair onto one of its fusion channels rewrite only
chain label ``y_pos``, with matrix elements that depend on its neighbours
``y_{pos-1}, y_{pos+1}``.  Both are ``F^-1 D F``: the F-move ``F``
resolves the pair's collective charge ``c``, ``D`` is diagonal in ``c``
(the phase ``R_c`` for a braid, ``delta_c`` for a projector), and the
inverse F-move returns to the chain basis, with the pair swapped for a
braid.  One builder multiplies the three out per neighbourhood, so no
amplitude is ever held in the basis where the pair carries its charge.
Each operator is stored, per model and basis, as a row-gather table
``(index, value)``: output row ``r`` is ``sum_k value[k, r] *
amps[index[k, r]]``, with ``k`` running over at most the number of charges
``m``.  Both arrays have shape ``(w, dim)``, slot-major so that applying a
table, ``(value * amps[index]).sum(0)``, reduces over contiguous rows.  A
table costs O(dim * m) memory and time; no operator is ever a dim x dim
matrix.  The projectors of a pair onto its ``P`` channels are built at once
as one table of shape ``(w, P, dim)``, each zero-padded from its own width:
one gather gives all ``P`` projections.  Composite operators (transport of
a charge line, non-adjacent measurement, the quad-braid oracle) are
sequences of such tables, applied in turn and never multiplied out.  The
same tables act on a batch of states stored as ``(dim, T)`` columns.

Source and destination basis of a table differ at most in the order of
the pair's leaves, which changes only the rank terms of columns ``pos`` and
``pos + 1``.  So how far each entry's source row lies from its destination
row, and the entry's value, depend only on the destination row's
neighbourhood, its labels in columns ``pos - 1`` to ``pos + 1``.  A table
is worked out once per neighbourhood that occurs, at most ``m**3`` of them,
and gathered out to the rows: no row is sorted or looked up.

Each model has one cache.  A builder wrapped by :func:`_cached` (a
basis, its rank tables, a braid or projector table, and a measurement
operator of :mod:`anyonbraid.measurement`) is memoized in
``model._cache`` under the key ``(builder, *args)``, so it runs once per
model and arguments.  Its value is made read-only at that one store
point: every array in it, at any depth of tuples, and a value holds
arrays and tuples, never lists, so no caller can alter a table that
others share.

States are immutable; operations return new states, so independent Monte
Carlo trials can fan out across workers freely.
"""

from __future__ import annotations

import functools
import math
import numpy as np

from .errors import BasisMismatch, InvalidPosition, RegisterTooLarge
from .model import AnyonModel

#: Unit-norm tolerance enforced on construction.
NORM_TOL = 1e-9

#: Dtype of chain labels.  They are charge indices, below the
#: :data:`~anyonbraid.model.MAX_CHARGES` charges a model may have.
LABEL = np.uint8

#: Largest number of leaves a register may have.
MAX_LEAVES = 1024

#: Largest basis dimension a register may have.  Its ``(dim, n)`` chain
#: matrix and every ``(w, dim)`` gather table are dense: a Fibonacci array
#: of 10 computational anyons (28 leaves, dim 196,418) fits and checks a
#: braid in under 0.5 GB; one of 11 (32 leaves, dim 1,346,269) is refused.
MAX_DIM = 2 ** 20


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

    def _replace_amps(self, amps) -> "StateVector":
        return StateVector(self.model, self.leaves, self.total, amps, _chains=self.chains)

    def __repr__(self) -> str:
        leaves = ",".join(self.model.labels[i] for i in self.leaves)
        return (f"StateVector({self.model.name}; leaves=[{leaves}]; "
                f"total={self.model.labels[self.total]}; dim={self.dim})")


# ---------------------------------------------------------------------------
# The per-model cache.
# ---------------------------------------------------------------------------


def _cached(build):
    """Memoize ``build(model, *args)`` in ``model._cache`` under
    ``(build, *args)``, freezing the value when it is stored."""
    @functools.wraps(build)
    def cached(model, *args):
        key = (build, *args)
        value = model._cache.get(key)
        if value is None:
            value = model._cache[key] = _frozen(build(model, *args))
        return value
    return cached


def _frozen(value):
    """``value`` with every array in it, at any depth of tuples, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _frozen(item)
    return value


# ---------------------------------------------------------------------------
# Basis enumeration and ranks.
# ---------------------------------------------------------------------------


@_cached
def _ranks(model, leaves, total):
    """Suffix path counts and column rank terms of the standard basis.

    ``counts[j, y]`` is the number of ways to complete a chain that holds
    ``y`` in column ``j`` (``counts[n-1]`` marks the total), and
    ``terms[j, p, y] = sum_{y' < y} N[p, l_j, y'] counts[j, y']`` counts the
    rows that hold ``p`` in column ``j - 1`` and a label below ``y`` in
    column ``j``.  A row's index is ``sum_j terms[j, y_{j-1}, y_j]``, with
    ``y_{-1}`` the vacuum.  Counts are summed in Python integers and then
    clipped above :data:`MAX_DIM`, which keeps every count a row can reach
    exact.  Raises :class:`RegisterTooLarge` for more than
    :data:`MAX_LEAVES` leaves or :data:`MAX_DIM` basis states, before
    anything is enumerated.
    """
    n = len(leaves)
    if n > MAX_LEAVES:
        raise RegisterTooLarge(f"register of {n} leaves exceeds the limit of "
                               f"{MAX_LEAVES} leaves")
    steps = (model.N[:, list(leaves), :] != 0).astype(np.int64).transpose(1, 0, 2)
    counts = np.zeros((n, model.num_charges), dtype=object)
    if n:
        counts[-1, total] = 1
    for j in range(n - 2, -1, -1):
        counts[j] = steps[j + 1] @ counts[j + 1]
    if n and counts[0, leaves[0]] > MAX_DIM:
        raise RegisterTooLarge(f"register of {n} leaves has {counts[0, leaves[0]]} "
                               f"basis states, over the limit of {MAX_DIM}")
    counts = np.minimum(counts, MAX_DIM + 1).astype(np.int64)
    weights = steps * counts[:, None, :]
    terms = np.cumsum(weights, axis=2) - weights
    return counts, terms


@_cached
def _basis(model, leaves, total):
    """Chain-label matrix of the standard basis, rows in lexicographic order.

    The rows that share a prefix ending in ``y`` at column ``j`` are
    contiguous and number ``counts[j, y]``, so each column is its prefixes'
    last labels, in order, each repeated by its count.  Only labels from
    which the chain still reaches ``total`` extend a prefix.
    """
    counts, _ = _ranks(model, leaves, total)
    n = len(leaves)
    dim = int(counts[0, leaves[0]]) if n else int(total == 0)
    rows = np.empty((dim, n), dtype=LABEL)
    labels = np.full(min(dim, 1), leaves[0] if n else 0, dtype=np.intp)
    for j in range(n):
        if j:
            # row-major nonzero keeps prefixes in order, labels ascending
            labels = np.nonzero(model.N[labels, leaves[j]] * counts[j])[1]
        rows[:, j] = np.repeat(labels, counts[j, labels])
    return rows


# ---------------------------------------------------------------------------
# Local operators: row-gather tables.
# ---------------------------------------------------------------------------


def _gather(table, amps):
    """Apply one gather table to amplitudes of shape ``(dim,)`` or ``(dim, T)``;
    a ``(w, P, dim)`` stack of ``P`` tables gives ``(P, dim)`` or ``(P, dim, T)``."""
    index, value = table
    if amps.ndim == 1:
        out = amps[index]
    else:  # ``take`` gathers the rows of a batch faster than indexing
        out = amps.take(index, axis=0)
        value = value[..., None]
    out *= value
    return out[0] if len(out) == 1 else np.add.reduce(out, 0)


def _gather_all(tables, amps):
    """Apply a sequence of gather tables, first to last."""
    for table in tables:
        amps = _gather(table, amps)
    return amps


# ---------------------------------------------------------------------------
# Pair operators: braids and channel projectors.
# ---------------------------------------------------------------------------


def _pair_tables(model, leaves, total, pos, phases, out_leaves):
    """Gather tables ``(index, value)`` of ``F^-1 diag(phi) F`` on leaves
    ``(pos, pos+1)``, one per row ``phi`` of the ``(P, m)`` array ``phases``,
    stacked as the slices ``[:, k]`` of two arrays of shape ``(w, P, dim)``.

    ``F`` resolves the pair's charge ``c``, channel ``c`` takes ``phi[c]``,
    and the inverse F-move returns to the basis of ``out_leaves``: the
    leaves with the pair swapped for a braid, unchanged for a projector.
    At ``pos = 0`` the pair channel is a chain label: the tables are
    diagonal.

    Elsewhere the bases of ``leaves`` (source) and ``out_leaves``
    (destination) agree outside columns ``pos`` and ``pos + 1``, so a
    destination row's entries depend only on its neighbourhood, its labels
    ``x, p, q`` in columns ``pos``, ``pos - 1`` and ``pos + 1``: the source
    row that holds ``y`` in column ``pos`` differs from it only in the rank
    terms (:func:`_ranks`) of the two columns, and its amplitude is
    ``local[p, q, x, y]``.  All tables are worked out as ``(m, P, S)`` arrays
    by source label on the ``S`` neighbourhoods that occur, numbered by a
    count over all ``m**3``, and gathered out to the rows once.  Entries
    that vanish are dropped: table ``k`` has its own width ``w_k``, the most
    labels any row draws from, and its slots past ``w_k`` hold index 0 and
    value +0.  A row's kept labels come first and its dropped ones after,
    each in ascending order, with index 0 where no source row holds one.
    """
    if pos == 0:
        labels = _basis(model, leaves, total)[:, 1]
        return np.tile(np.arange(len(labels)), (1, len(phases), 1)), phases[None][..., labels]
    dst = _basis(model, out_leaves, total)
    _, src_terms = _ranks(model, leaves, total)
    _, dst_terms = _ranks(model, out_leaves, total)
    m = model.num_charges
    site = np.ravel_multi_index((dst[:, pos], dst[:, pos - 1], dst[:, pos + 1]), (m,) * 3)
    occurs = np.bincount(site, minlength=m ** 3) != 0
    hood = (np.cumsum(occurs) - 1)[site]  # each row's neighbourhood number
    x, p, q = np.unravel_index(np.flatnonzero(occurs), (m,) * 3)
    # (m, S) arrays by source label y: whether a source row holds y, and how
    # far it lies from the destination row; then (m, P, S) values
    found = (model.N[p, leaves[pos]].T != 0) & (model.N[:, leaves[pos + 1], q] != 0)
    offset = (src_terms[pos][p].T + src_terms[pos + 1][:, q]
              - dst_terms[pos][p, x] - dst_terms[pos + 1][x, q])
    F_out = np.conj(model.f_rows(slice(None), out_leaves[pos], out_leaves[pos + 1]))
    F_in = model.f_rows(slice(None), leaves[pos], leaves[pos + 1])
    value = np.einsum("pqxc,kc,pqyc->kpqxy", F_out, phases, F_in)[:, p, q, x]
    value = value.transpose(2, 0, 1) * found[:, None]
    nonzero = value != 0
    widths = nonzero.sum(0).max(1, initial=1)
    order = np.argsort(~nonzero, axis=0, kind="stable")[:widths.max()]  # kept first
    pad = np.arange(len(order))[:, None, None] >= widths[:, None]  # slots past w_k
    col = np.arange(len(x))
    index = offset[order, col].take(hood, axis=2)
    index += np.arange(len(dst))
    index *= (found[order, col] & ~pad).take(hood, axis=2)
    value = np.where(pad, 0, value[order, np.arange(len(phases))[:, None], col])
    return index, value.take(hood, axis=2)


@_cached
def _braid_table(model, leaves, total, pos, sign):
    """Gather table of the elementary exchange of leaves (pos, pos+1).

    Returns ``(new_leaves, index, value)``.  The exchange is ``F^-1 R F``,
    slot 0 of a one-phase :func:`_pair_tables` stack: each channel ``c`` of
    the pair takes the phase ``R_c^{ab}`` (``sign=+1``, counterclockwise) or
    ``conj(R_c^{ba})`` (``sign=-1``), and the pair leaves swapped.  The
    adjoint is the opposite-sign table of the swapped leaves.
    """
    a, b = leaves[pos], leaves[pos + 1]
    swapped = leaves[:pos] + (b, a) + leaves[pos + 2:]
    phases = model.R[a, b] if sign > 0 else np.conj(model.R[b, a])
    index, value = _pair_tables(model, leaves, total, pos, phases[None], swapped)
    return swapped, index[:, 0], value[:, 0]


@_cached
def _projector_table(model, leaves, total, pos):
    """Projectors of leaves ``(pos, pos+1)`` onto their channels, stacked.

    Returns ``(present, index, value)``: ``present`` holds the channels the
    pair carries in some basis row, ascending, and slice ``[:, k]`` of the
    ``(w, P, dim)`` stack of :func:`_pair_tables` is the projector
    ``F^-1 delta_c F`` onto channel ``c = present[k]``, in its own width.
    """
    channels = np.flatnonzero(model.N[leaves[pos], leaves[pos + 1]])
    deltas = np.identity(model.num_charges, dtype=complex)[channels]
    index, value = _pair_tables(model, leaves, total, pos, deltas, leaves)
    kept = value.any(axis=(0, 2))
    if not kept.all():
        index, value = index.compress(kept, 1), value.compress(kept, 1)
    return channels[kept], index, value


def _transport(model, leaves, total, i, j, routing="over"):
    """Composite braid that carries leaf ``j`` to position ``i + 1``.

    Returns ``(new_leaves, forward, backward)``: tuples of the gather tables
    of the transport ``T`` and of ``T^dag`` (transporting back), each in
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
    return cur, tuple(forward), tuple(backward[::-1])


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
    _, old_terms = _ranks(model, state.leaves, state.total)
    _, new_terms = _ranks(model, new_leaves, state.total)
    out = np.zeros(len(new_basis), dtype=complex)
    chains = state.chains
    y = chains[:, position - 1] if position else np.zeros(len(chains), dtype=LABEL)
    # Re-rank the columns before the pair; those after it keep their terms,
    # since the chain completes from each of them as before.
    base = np.arange(len(chains))
    before = np.zeros(len(chains), dtype=LABEL)
    for j in range(position):
        base += (new_terms[j] - old_terms[j])[before, chains[:, j]]
        before = chains[:, j]
    every = np.arange(model.num_charges)
    for z in every.tolist():
        amp = (np.conj(model.f_rows(every, ca, cab, every, z)[:, 0]) * model.N[every, ca, z])[y]
        keep = amp != 0
        # The running charge goes y -> z (absorb a) -> y (absorb dual a)
        # and the rest of the chain is untouched.
        index = (base[keep] + new_terms[position][y[keep], z]
                 + new_terms[position + 1][z, y[keep]])
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
