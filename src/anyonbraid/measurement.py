"""Projective topological charge measurement of anyon pairs.

A measurement of the collective charge of leaves ``(i, j)`` projects the
state onto a definite fusion channel and renormalizes (Born rule).  For
adjacent leaves this is one F-move into the pair-resolved basis, a channel
mask, and the inverse F-move.  For non-adjacent pairs the charge line of
leaf ``j`` is first transported next to ``i`` by elementary braids, passing
either over (``routing="over"``, counterclockwise crossings) or under
(``"under"``) the intervening lines, and transported back afterwards with
the inverse braids.  The routing is an explicit parameter because the two
conventions are physically distinct measurement processes.  Every step is
a local gather table of :mod:`anyonbraid.fusion_space`, applied in turn.

All functions are pure: they return new states and leave inputs untouched.
There is one sampler, :func:`_sample_columns`, which the forced
measurements of :mod:`anyonbraid.teleport` run.  It measures the columns
of a ``(dim, T)`` amplitude matrix together, each with one uniform draw
from its own stream, and a single state as a batch of one: a ``(dim,)``
vector with a scalar draw, through the same gathers and the same
arithmetic.  The draws of a batch come from :mod:`anyonbraid.streams`:
trial ``t`` of a command draws ``default_rng([seed, t])``, computed for
all columns at once as arrays and equal to that generator's stream bit
for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidPosition, ZeroProbabilityOutcome
from .fusion_space import (StateVector, _f_move_table, _gather_all, _pair_channels,
                           _transport)
from .model import Charge

#: Outcomes below this Born probability are treated as impossible; this
#: separates exact zeros from round-off.
PROBABILITY_FLOOR = 1e-12


class _MeasurementOp(NamedTuple):
    """Local form of the measurement of one pair.

    ``forward`` is the gather-table sequence ``W = U T`` taking standard
    amplitudes into the basis where the (possibly transported) pair has an
    explicit collective charge, ``channels`` the pair charge of each row
    there, ``present`` the distinct channels in index order, and
    ``backward`` the sequence of ``W^dag``.  ``indicator[c]`` is the 0/1
    row mask ``channels == c`` for every charge ``c``, so the projector onto
    channel ``c`` is ``W^dag diag(indicator[c]) W``.
    """

    channels: np.ndarray
    present: tuple[int, ...]
    forward: list
    backward: list
    indicator: np.ndarray


def _measurement_op(state: StateVector, i: int, j: int, routing: str) -> _MeasurementOp:
    """The cached :class:`_MeasurementOp` of pair ``(i, j)`` on ``state``'s basis."""
    n = state.num_leaves
    if not (0 <= i < j < n):
        raise InvalidPosition(f"invalid pair ({i}, {j}) for {n} leaves")
    model = state.model
    key = ("measure", state.leaves, state.total, i, j, routing)
    hit = model._cache.get(key)
    if hit is not None:
        return hit
    if j == i + 1:
        moved, forward, backward = state.leaves, [], []
    else:
        moved, forward, backward = _transport(model, state.leaves, state.total,
                                              i, j, routing)
    if i > 0:
        forward = forward + [_f_move_table(model, moved, state.total, i)]
        backward = [_f_move_table(model, moved, state.total, i, inverse=True)] + backward
    channels = _pair_channels(model, moved, state.total, i)
    indicator = (channels == np.arange(model.num_charges)[:, None]).astype(float)
    present = tuple(np.flatnonzero(indicator.any(1)).tolist())
    indicator.flags.writeable = False
    op = _MeasurementOp(channels, present, forward, backward, indicator)
    model._cache[key] = op
    return op


def _resolve(op: _MeasurementOp, amps):
    """The amplitudes ``W amps``, where the pair has an explicit charge, and
    the Born weight of every charge, by charge index: shape ``(m,)`` for one
    state ``(dim,)`` and ``(m, T)`` for the columns of ``(dim, T)``."""
    resolved = _gather_all(op.forward, amps)
    return resolved, op.indicator.dot(np.abs(resolved) ** 2)


def _collapse(op: _MeasurementOp, resolved, charges, prob):
    """Keep channel ``charges`` of the resolved amplitudes (one charge per
    column of a batch), map back and divide by the square root of its
    probability ``prob``."""
    kept = resolved * op.indicator.take(charges, axis=0).T
    return _gather_all(op.backward, kept) / np.sqrt(prob)


def _sample_columns(op: _MeasurementOp, resolved, weights, u):
    """Measure ``op``'s pair on resolved amplitudes and their weights
    (:func:`_resolve`): the columns of a batch ``(dim, T)`` with draws ``u``
    of shape ``(T,)``, or one state ``(dim,)`` with a scalar draw ``u`` (or
    a draw of shape ``(1,)``).

    Column ``t`` takes its uniform draw ``u[t]`` and the first charge,
    in index order, whose cumulative Born weight exceeds it, skipping
    channels below :data:`PROBABILITY_FLOOR`; when the draw falls into
    round-off slack past the last channel it takes the likeliest.  Returns
    the charge index, its probability and the collapsed amplitudes of each
    column, or of the one state.
    """
    hit = (u < np.add.accumulate(weights, 0)) & (weights >= PROBABILITY_FLOOR)
    # Hits score 2, above every weight (at most 1 + round-off), and argmax
    # takes the first maximum: the first hit wins, and without a hit the
    # likeliest charge does; its probability is then at least 1/m, above
    # the floor.
    charges = np.where(hit, 2.0, weights).argmax(0)
    prob = weights[charges] if weights.ndim == 1 else weights[charges, np.arange(len(u))]
    return charges, prob, _collapse(op, resolved, charges, prob)


def pair_charge_distribution(state: StateVector, i: int, j: int,
                             routing: str = "over") -> dict[Charge, float]:
    """Born probabilities for the collective charge of leaves ``(i, j)``.

    The probabilities sum to 1; channels absent from the state's support
    appear with probability 0.0 only if they are structurally admissible.
    """
    op = _measurement_op(state, i, j, routing)
    _, weights = _resolve(op, state.amps)
    return {state.model.charges[c]: float(weights[c]) for c in op.present}


def project_pair(state: StateVector, i: int, j: int, c,
                 routing: str = "over") -> tuple[StateVector, float]:
    """Project leaves ``(i, j)`` onto collective charge ``c`` and renormalize.

    Returns the post-measurement state and the Born probability of the
    outcome.  Raises :class:`ZeroProbabilityOutcome` when the outcome is
    impossible (probability below the floor).
    """
    ci = state.model.charge(c).index
    op = _measurement_op(state, i, j, routing)
    resolved, weights = _resolve(op, state.amps)
    prob = float(weights[ci])
    if prob < PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {state.model.labels[ci]} on pair {(i, j)} has probability {prob:.3e}")
    return state._replace_amps(_collapse(op, resolved, ci, prob)), prob
