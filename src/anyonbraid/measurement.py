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
Stochastic sampling takes an explicit ``numpy.random.Generator``; concurrent
trials must not share one generator stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidPosition, ZeroProbabilityOutcome
from .fusion_space import (StateVector, _f_move_table, _gather_all, _pair_channels,
                           _transport)
from .model import Charge

#: Outcomes below this Born probability are treated as impossible; this
#: separates exact zeros from round-off.
PROBABILITY_FLOOR = 1e-12


@dataclass(frozen=True)
class MeasurementOutcome:
    """One sampled pair measurement: where, what was found, how likely."""

    pair: tuple[int, int]
    charge: Charge
    probability: float
    routing: str


@dataclass
class MeasurementTrace:
    """Line-oriented record of a measurement trajectory.

    Each entry is ``(pair, routing, outcome label, probability, cumulative
    log-probability)``; the stats commands of the CLI consume these lines.
    """

    entries: list = field(default_factory=list)
    log_probability: float = 0.0

    def record(self, outcome: MeasurementOutcome) -> None:
        self.log_probability += math.log(outcome.probability)
        self.entries.append({
            "pair": list(outcome.pair),
            "routing": outcome.routing,
            "outcome": outcome.charge.label,
            "probability": outcome.probability,
            "cumulative_log_probability": self.log_probability,
        })

    def to_jsonl(self) -> str:
        import json

        return "\n".join(json.dumps(entry) for entry in self.entries)


class _MeasurementOp(NamedTuple):
    """Local form of the measurement of one pair.

    ``forward`` is the gather-table sequence ``W = U T`` taking standard
    amplitudes into the basis where the (possibly transported) pair has an
    explicit collective charge, ``channels`` the pair charge of each row
    there, ``present`` the distinct channels in index order, and
    ``backward`` the sequence of ``W^dag``.  The projector onto channel
    ``c`` is ``W^dag diag(channels == c) W``.
    """

    channels: np.ndarray
    present: tuple[int, ...]
    forward: list
    backward: list


def _measurement_op(state: StateVector, i: int, j: int, routing: str) -> _MeasurementOp:
    """The cached :class:`_MeasurementOp` of pair ``(i, j)`` on ``state``'s basis."""
    n = state.num_leaves
    if not (0 <= i < j < n):
        raise InvalidPosition(f"invalid pair ({i}, {j}) for {n} leaves")
    if state.resolved_pair is not None:
        raise InvalidPosition("measurement requires the standard basis")
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
    present = tuple(int(c) for c in np.unique(channels))
    op = _MeasurementOp(channels, present, forward, backward)
    model._cache[key] = op
    return op


def _collapse(state: StateVector, op: _MeasurementOp, resolved, ci: int,
              pair) -> tuple[StateVector, float]:
    """Keep channel ``ci`` of the resolved amplitudes, map back, renormalize."""
    kept = np.where(op.channels == ci, resolved, 0.0)
    prob = float(np.vdot(kept, kept).real)
    if prob < PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {state.model.labels[ci]} on pair {pair} has probability {prob:.3e}")
    post = _gather_all(op.backward, kept) / math.sqrt(prob)
    return state._replace_amps(post), prob


def _channel_weights(state: StateVector, op: _MeasurementOp, resolved):
    """Born weight of every charge, indexed by charge index."""
    return np.bincount(op.channels, weights=resolved.real ** 2 + resolved.imag ** 2,
                       minlength=state.model.num_charges)


def pair_charge_distribution(state: StateVector, i: int, j: int,
                             routing: str = "over") -> dict[Charge, float]:
    """Born probabilities for the collective charge of leaves ``(i, j)``.

    The probabilities sum to 1; channels absent from the state's support
    appear with probability 0.0 only if they are structurally admissible.
    """
    op = _measurement_op(state, i, j, routing)
    weights = _channel_weights(state, op, _gather_all(op.forward, state.amps))
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
    return _collapse(state, op, _gather_all(op.forward, state.amps), ci, (i, j))


def sample_measurement(state: StateVector, i: int, j: int, rng,
                       routing: str = "over",
                       trace: MeasurementTrace | None = None,
                       ) -> tuple[MeasurementOutcome, StateVector]:
    """Draw one measurement outcome for pair ``(i, j)`` and collapse.

    The measurement operator is applied once: the resolved amplitudes give
    the channel weights and, masked, the post-measurement state.  Sampling
    is inverse-CDF over the channels in charge-index order with one
    ``rng.random()`` draw, so a fixed generator stream reproduces the
    trajectory exactly.
    """
    op = _measurement_op(state, i, j, routing)
    resolved = _gather_all(op.forward, state.amps)
    weights = _channel_weights(state, op, resolved)
    u = rng.random()
    acc = 0.0
    chosen = None
    for c in op.present:  # charges iterate in index order
        p = float(weights[c])
        acc += p
        if u < acc and p >= PROBABILITY_FLOOR:
            chosen = c
            break
    if chosen is None:  # u fell into round-off slack; take the likeliest
        chosen = max(op.present, key=lambda c: weights[c])
    post, prob = _collapse(state, op, resolved, chosen, (i, j))
    outcome = MeasurementOutcome((i, j), state.model.charges[chosen], prob, routing)
    if trace is not None:
        trace.record(outcome)
    return outcome, post
