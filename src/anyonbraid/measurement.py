"""Projective topological charge measurement of anyon pairs.

A measurement of the collective charge of leaves ``(i, j)`` projects the
state onto a definite fusion channel and renormalizes (Born rule).  For
adjacent leaves one gather of the pair's stacked channel projectors
``F^-1 delta_c F`` gives the projection onto every channel it can carry;
a channel's Born weight is the squared norm of its projection, and the
outcome keeps its projection, renormalized.  For non-adjacent pairs the
charge line of leaf ``j`` is first transported next to ``i`` by
elementary braids, passing either over (``routing="over"``,
counterclockwise crossings) or under (``"under"``) the intervening lines,
and transported back afterwards with the inverse braids.  The routing is
an explicit parameter because the two conventions are physically distinct
measurement processes.  Every step is a local gather table of
:mod:`anyonbraid.fusion_space`, applied in turn.

All functions are pure: they return new states and leave inputs untouched.
There is one sampler, :func:`_sample_columns`, which the forced
measurements of :mod:`anyonbraid.teleport` run.  It measures the columns
of a ``(dim, T)`` amplitude matrix together, each with one uniform draw
from its own stream, and a single state as a batch of one: a ``(dim,)``
vector with a scalar draw, through the same gathers and the same
arithmetic.  The Born weights are summed in one fixed order, so every
column of a batch equals its batch of one bit for bit.  The draws of a
batch come from :mod:`anyonbraid.streams`: trial ``t`` of a command draws
``default_rng([seed, t])``, computed for all columns at once as arrays and
equal to that generator's stream bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidPosition, ZeroProbabilityOutcome
from .fusion_space import (StateVector, _cached, _gather, _gather_all,
                           _projector_table, _transport)
from .model import Charge

#: Outcomes below this Born probability are treated as impossible; this
#: separates exact zeros from round-off.
PROBABILITY_FLOOR = 1e-12


class _MeasurementOp(NamedTuple):
    """Local form of the measurement of one pair.

    ``forward`` is the gather-table sequence of the transport ``T`` that
    brings the pair's second leaf next to its first (empty for an adjacent
    pair) and ``backward`` that of ``T^dag``.  ``project`` is the stacked
    gather table of the transported pair's projectors ``Pi_c`` onto each
    channel ``c`` of ``present`` (charge indices, ascending), so the
    projector of the pair onto channel ``present[k]`` is
    ``T^dag Pi_c T``.
    """

    present: np.ndarray
    forward: tuple
    project: tuple
    backward: tuple


def _measurement_op(state: StateVector, i: int, j: int, routing: str) -> _MeasurementOp:
    """The cached :class:`_MeasurementOp` of pair ``(i, j)`` on ``state``'s basis."""
    n = state.num_leaves
    if not (0 <= i < j < n):
        raise InvalidPosition(f"invalid pair ({i}, {j}) for {n} leaves")
    return _pair_op(state.model, state.leaves, state.total, i, j, routing)


@_cached
def _pair_op(model, leaves, total, i, j, routing):
    """The :class:`_MeasurementOp` of a valid pair ``(i, j)`` of ``leaves``;
    an adjacent pair's transport is empty."""
    moved, forward, backward = _transport(model, leaves, total, i, j, routing)
    present, *project = _projector_table(model, moved, total, i)
    return _MeasurementOp(present, forward, tuple(project), backward)


def _resolve(op: _MeasurementOp, amps):
    """The projections ``Pi_c T amps`` onto every channel of ``op.present``
    and their Born weights, the squared norms: shapes ``(P, dim)`` and
    ``(P,)`` for one state ``(dim,)``, ``(P, dim, T)`` and ``(P, T)`` for
    the columns of ``(dim, T)``.

    A weight adds its rows one after another, for a vector as for each
    column of a block, so a column gets the bits it would get alone: a
    reduce over the rows of several columns adds them so, but it would sum
    one column, or a vector, pairwise.
    """
    projections = _gather(op.project, _gather_all(op.forward, amps))
    squares = np.abs(projections)
    squares *= squares
    if squares.ndim == 3 and squares.shape[2] > 1:
        return projections, np.add.reduce(squares, 1)
    return projections, np.add.accumulate(squares, 1)[:, -1]


def _vacuum_weight(state: StateVector, pair, routing: str = "over") -> float:
    """Born weight of the vacuum channel of ``pair`` on ``state``; the
    vacuum, charge 0, is the first channel when the pair can carry it."""
    op = _measurement_op(state, *pair, routing)
    _, weights = _resolve(op, state.amps)
    return float(weights[0]) if op.present[0] == 0 else 0.0


def _collapse(op: _MeasurementOp, projections, k, prob):
    """The projection onto channel ``op.present[k]`` (one slot ``k`` per
    column of a batch), mapped back by ``T^dag`` and divided by the square
    root of its probability ``prob``."""
    if projections.ndim == 2:
        return _gather_all(op.backward, projections[k]) / np.sqrt(prob)
    kept = projections[0].copy()
    for slot in range(1, len(projections)):
        np.copyto(kept, projections[slot], where=k == slot)
    kept = _gather_all(op.backward, kept)
    kept /= np.sqrt(prob)
    return kept


def _sample_columns(op: _MeasurementOp, projections, weights, u):
    """Measure ``op``'s pair from its projections and their weights
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
    # likeliest channel does; its probability is then at least 1/m, above
    # the floor.
    k = np.where(hit, 2.0, weights).argmax(0)
    prob = weights[k] if weights.ndim == 1 else weights[k, np.arange(len(u))]
    return op.present[k], prob, _collapse(op, projections, k, prob)


def pair_charge_distribution(state: StateVector, i: int, j: int,
                             routing: str = "over") -> dict[Charge, float]:
    """Born probabilities for the collective charge of leaves ``(i, j)``.

    The probabilities sum to 1; channels absent from the state's support
    appear with probability 0.0 only if they are structurally admissible.
    """
    op = _measurement_op(state, i, j, routing)
    _, weights = _resolve(op, state.amps)
    return {state.model.charges[c]: float(w)
            for c, w in zip(op.present.tolist(), weights.tolist())}


def project_pair(state: StateVector, i: int, j: int, c,
                 routing: str = "over") -> tuple[StateVector, float]:
    """Project leaves ``(i, j)`` onto collective charge ``c`` and renormalize.

    Returns the post-measurement state and the Born probability of the
    outcome.  Raises :class:`ZeroProbabilityOutcome` when the outcome is
    impossible (probability below the floor).
    """
    ci = state.model.charge(c).index
    op = _measurement_op(state, i, j, routing)
    projections, weights = _resolve(op, state.amps)
    k = int(np.searchsorted(op.present, ci))
    prob = float(weights[k]) if ci in op.present else 0.0
    if prob < PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {state.model.labels[ci]} on pair {(i, j)} has probability {prob:.3e}")
    return state._replace_amps(_collapse(op, projections, k, prob)), prob
