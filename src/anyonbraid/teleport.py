"""Forced-measurement teleportation and measurement-generated braids.

A *forced measurement* alternates projective charge measurements of a
target pair and an overlapping recovery pair until the target pair lands in
the vacuum channel.  Starting from a recovery pair in a definite vacuum
channel, success at attempt ``j`` has probability ``d_{e_j} / d_a^2`` given
the current recovery charge ``e_j``, so the attempt count is dominated by a
geometric law and failure is exponentially suppressed.  The net effect is
anyonic teleportation: the encoded state information moves from the leaf
unique to the target pair to the leaf unique to the recovery pair, up to a
global phase that depends only on the outcome string.

Many trials of one forced measurement run in lockstep as the columns of a
``(dim, T)`` block (:func:`forced_measurements`), each drawing from its
:class:`~anyonbraid.streams.TrialStreams` column; a single forced
measurement is a block of one trial, run on the state's ``(dim,)`` vector
through the same sampler with its generator's draws.

Three forced measurements on a contiguous quad of leaves compose to the
braiding exchange of the two outer anyons while restoring the middle
entangled pair, which is what :func:`measurement_braid` implements and
verifies against the directly applied R-matrix oracle.  The phase of each
teleport is taken against the analytic teleported state, which the first
attempt of its forced measurement has already computed.

Each check runs once, where it is needed.  The public forced measurements
check their pairs.  A braid checks its quad, its direction and the quad's
resource pair once, before its first step: the recovery pair of steps 2
and 3 is the target pair the step before has just forced into the vacuum.
Whether every resource pair of a register is back in the vacuum is for
the caller to check on the final state
(:func:`anyonbraid.compiler.check_resources`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import MaxAttemptsExceeded, NotPhaseEquivalent, ProtocolError
from .fusion_space import (StateVector, _braid_table, _gather_all, _transport,
                           inner)
from .measurement import (_collapse, _measurement_op, _resolve, _sample_columns,
                          _vacuum_weight, pair_charge_distribution)
from .model import Charge

#: Stop a forced measurement after this many target-pair attempts.
MAX_ATTEMPTS_DEFAULT = 1000

#: Batched forced measurements run in lockstep blocks of this many trials.
#: Only one block's stream state, draws and amplitudes are alive at a time.
BLOCK_TRIALS = 4096

#: A recovery pair must carry the vacuum channel with at least this weight.
VACUUM_TOL = 1e-9

#: Overlap defect tolerated when extracting a relative phase.
PHASE_TOL = 1e-6


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome string of one forced measurement.

    ``outcomes`` alternates recovery and target charges
    ``(e_1, f_1, ..., e_n, f_n)`` with ``e_1`` the initial recovery channel
    (vacuum) and ``f_n`` the forced vacuum outcome; interior target
    outcomes are necessarily non-vacuum.
    """

    outcomes: tuple[Charge, ...]
    attempts: int
    target_pair: tuple[int, int]
    recovery_pair: tuple[int, int]
    trajectory_probability: float
    routing: str

    def target_outcomes(self) -> tuple[Charge, ...]:
        return self.outcomes[1::2]


@dataclass(frozen=True)
class BraidRecord:
    """Three forced measurements synthesizing one braid generator.

    ``extracted_phase`` is the global phase of the protocol output relative
    to the directly braided oracle state (in the fixed phase convention of
    :func:`measurement_braid`); it depends only on the outcome strings and
    equals the product of the per-teleport ``step_phases``.
    """

    steps: tuple[MeasurementRecord, MeasurementRecord, MeasurementRecord]
    direction: str
    extracted_phase: complex
    step_phases: tuple[complex, complex, complex]
    quad: tuple[int, int, int, int]
    oracle_fidelity: float

    @property
    def attempts(self) -> tuple[int, int, int]:
        return tuple(s.attempts for s in self.steps)


def expected_attempt_bound(model, a) -> float:
    """Upper bound ``d_a^2`` on the mean number of forced-measurement attempts."""
    return float(model.qd[model.charge(a).index] ** 2)


def failure_tail_probability(model, a, n_attempts: int) -> float:
    """Upper bound ``(1 - d_a^{-2})^N`` on needing more than ``N`` attempts."""
    if n_attempts < 0:
        raise ValueError("attempt count must be >= 0")
    da2 = float(model.qd[model.charge(a).index] ** 2)
    return (1.0 - 1.0 / da2) ** n_attempts


def expected_mean_attempts(model, a) -> float:
    """Exact mean attempt count of a forced measurement on an ``(a, dual a)`` pair.

    Solves the absorbing Markov chain over the recovery-pair charge ``e``:
    attempt success probability is ``d_e / d_a^2`` and a failed outcome ``f``
    re-randomizes ``e`` with probability ``|[F_a^{a,dual a,a}]_{ef}|^2``.
    Starting charge is the vacuum.
    """
    ia = model.charge(a).index
    ab = model.dual(a).index
    channels = np.flatnonzero(model.N[ia, ab])
    probs = np.abs(model.f_rows(ia, ab, ia, ia)[np.ix_(channels, channels)]) ** 2
    nonvac = channels != 0
    # E_e = 1 + sum_{f != 0} P(f|e) sum_{e'} P(e'|f) E_{e'}
    transfer = probs[:, nonvac] @ probs[:, nonvac].T
    expected = np.linalg.solve(np.identity(len(channels)) - transfer,
                               np.ones(len(channels)))
    return float(expected[list(channels).index(0)])


def relative_phase(s1: StateVector, s2: StateVector, tol: float = PHASE_TOL) -> complex:
    """Global phase by which ``s1`` differs from ``s2``.

    Raises :class:`NotPhaseEquivalent` unless the states overlap with
    magnitude within ``tol`` of 1.
    """
    ov = inner(s2, s1)
    mag = abs(ov)
    if abs(mag - 1.0) > tol:
        raise NotPhaseEquivalent(f"states differ beyond a global phase: |<s2|s1>| = {mag}")
    return ov / mag


@dataclass
class ForcedBlock:
    """Lockstep forced measurements of one block of trials, as raw arrays.

    Column ``t`` is trial ``t`` of the block, started from ``state``.
    Measurement ``s`` of a trial is on the target pair for even ``s`` and
    on the recovery pair for odd ``s``; ``outcomes[s, t]`` is its charge
    index (the vacuum is 0), or -1 once trial ``t`` has stopped, and
    ``probabilities[s, t]`` its Born probability.  ``amps[:, t]`` holds the
    final amplitudes of trial ``t`` (the state after its last measurement
    when it ran out of attempts).  ``first`` holds the projections of
    ``state`` onto the target pair's channels, which the first measurement
    of every trial makes, and their weights, for :meth:`reference`.
    """

    state: StateVector
    target_pair: tuple[int, int]
    recovery_pair: tuple[int, int]
    routing: str
    outcomes: np.ndarray
    probabilities: np.ndarray
    amps: np.ndarray
    first: tuple[np.ndarray, np.ndarray]

    @property
    def attempts(self) -> np.ndarray:
        """Target-pair measurements made by each trial."""
        return np.count_nonzero(self.outcomes[0::2] >= 0, axis=0)

    @property
    def succeeded(self) -> np.ndarray:
        """Whether each trial's last target outcome was the vacuum."""
        return (self.outcomes[0::2] == 0).any(0)

    def attempt_charges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per target attempt (rows) and trial (columns), the recovery
        charge ``e`` the attempt starts from and its target outcome ``f``.

        ``e`` is the vacuum for the first attempt and the previous recovery
        outcome after that; entries are meaningful where ``f >= 0``.
        """
        f = self.outcomes[0::2]
        vacuum = np.zeros((1, f.shape[1]), dtype=f.dtype)
        return np.vstack([vacuum, self.outcomes[1::2]])[:len(f)], f

    def record(self, t: int) -> MeasurementRecord:
        """The :class:`MeasurementRecord` of trial ``t``."""
        charges = self.state.model.charges
        outcomes = [charges[0]]  # the recovery pair starts in the vacuum
        log_prob = 0.0
        for c, p in zip(self.outcomes[:, t].tolist(), self.probabilities[:, t].tolist()):
            if c < 0:
                break
            outcomes.append(charges[c])
            log_prob += math.log(p)
        return MeasurementRecord(tuple(outcomes), len(outcomes) // 2, self.target_pair,
                                 self.recovery_pair, math.exp(log_prob), self.routing)

    def final_state(self, t: int) -> StateVector:
        return self.state._replace_amps(self.amps[:, t])

    def reference(self) -> StateVector:
        """The teleported state ``Pi_0 state / sqrt(p_0)``, in which every
        successful trial ends up to a global phase: the projection of
        ``state``'s target pair onto the vacuum
        (:func:`~anyonbraid.measurement.project_pair`), bit for bit.

        It is built from the vacuum projection in :attr:`first`, the first
        channel, so no projector is applied again.  A trial that drew the
        vacuum at once ends in it exactly.
        """
        projections, weights = self.first
        op = _measurement_op(self.state, *self.target_pair, self.routing)
        return self.state._replace_amps(_collapse(op, projections, 0, weights[0]))


def _lockstep(state: StateVector, target_pair, recovery_pair, draw, T: int,
              max_attempts: int, routing: str) -> ForcedBlock:
    """Run one forced measurement per trial, ``T`` trials in lockstep.

    Every round measures the target pair, then the recovery pair, on the
    columns still active, measurement ``s`` of each drawing
    ``draw(s, live)``; a column leaves when its target outcome is the
    vacuum or after ``max_attempts`` rounds.  A block of one trial runs as
    a ``(dim,)`` vector, through the same sampler.  The pairs are not
    checked here.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    ops = (_measurement_op(state, *target_pair, routing),
           _measurement_op(state, *recovery_pair, routing))
    one = T == 1
    live = np.arange(T)
    amps = state.amps if one else state.amps[:, None].repeat(T, 1)
    final = None  # allocated when the first columns leave early
    rounds = []  # (live, charges, prob) of every measurement round
    for s in range(2 * max_attempts):
        # Draw first and drop the projections after sampling, so the draws'
        # temporaries are never alive beside them (peak memory).
        u = draw(s, live)
        op = ops[s % 2]
        projections, weights = _resolve(op, amps)
        charges, prob, amps = _sample_columns(op, projections, weights, u)
        rounds.append((live, charges, prob))
        if not s:
            # Every column starts from ``state``: keep column 0 only.
            first = (projections, weights) if one else (projections[:, :, 0].copy(),
                                                         weights[:, 0].copy())
        del projections, weights
        if s % 2:
            continue
        # the vacuum is charge 0; a vector's charge is a scalar
        going = int(charges != 0) if one else np.count_nonzero(charges)
        if not going:
            break
        if going < len(live):
            keep = charges != 0
            if final is None:
                final = np.empty((len(amps), T), dtype=complex)
            final[:, live[~keep]] = amps[:, ~keep]
            live, amps = live[keep], amps[:, keep]
    if final is None:  # no column left early, so every round is a full row
        final = amps[:, None] if one else amps
        outcomes = np.array([charges for _, charges, _ in rounds]).reshape(-1, T)
        probabilities = np.array([prob for _, _, prob in rounds]).reshape(-1, T)
    else:
        final[:, live] = amps
        outcomes = np.full((len(rounds), T), -1)
        probabilities = np.zeros((len(rounds), T))
        for s, (cols, charges, prob) in enumerate(rounds):
            outcomes[s, cols] = charges
            probabilities[s, cols] = prob
    return ForcedBlock(state, target_pair, recovery_pair, routing,
                       outcomes, probabilities, final, first)


def _checked_pairs(state: StateVector, target_pair, recovery_pair, routing):
    """The pairs as int tuples, after checking that they overlap in exactly
    one leaf and that the recovery pair is in a definite vacuum channel."""
    target_pair = (int(target_pair[0]), int(target_pair[1]))
    recovery_pair = (int(recovery_pair[0]), int(recovery_pair[1]))
    if len(set(target_pair) & set(recovery_pair)) != 1:
        raise ProtocolError(
            f"target {target_pair} and recovery {recovery_pair} must share exactly one leaf")
    if _vacuum_weight(state, recovery_pair, routing) < 1.0 - VACUUM_TOL:
        dist = pair_charge_distribution(state, *recovery_pair, routing=routing)
        raise ProtocolError(
            f"recovery pair {recovery_pair} lacks a definite vacuum channel: {dist}")
    return target_pair, recovery_pair


def forced_measurements(state: StateVector, target_pair, recovery_pair, streams,
                        max_attempts: int = MAX_ATTEMPTS_DEFAULT,
                        routing: str = "over") -> Iterator[ForcedBlock]:
    """Forced measurements of ``target_pair`` on ``state``, one trial per
    stream, undoing failures via ``recovery_pair``.

    ``streams`` is a :class:`~anyonbraid.streams.TrialStreams`.  Trials run
    in lockstep blocks of at most :data:`BLOCK_TRIALS`, each a slice of
    ``streams``; one :class:`ForcedBlock` is yielded per block, so only one
    block's streams and amplitudes are alive at a time.  Trial ``t`` draws
    the next double of its stream per measurement in the order it makes
    them, exactly as it would run alone.  A trial that runs out of attempts
    is flagged in its block's ``succeeded``.

    The pairs must overlap in exactly one leaf and the recovery pair must
    start in a definite vacuum channel; ``max_attempts`` must be at least 1.
    """
    pairs = _checked_pairs(state, target_pair, recovery_pair, routing)
    for start in range(0, len(streams), BLOCK_TRIALS):
        chunk = streams[start:start + BLOCK_TRIALS]
        yield _lockstep(state, *pairs, chunk.row, len(chunk), max_attempts, routing)


def _forced_block(state: StateVector, target_pair, recovery_pair, rng,
                  max_attempts: int, routing: str) -> tuple[ForcedBlock, MeasurementRecord]:
    """The block of one trial of :func:`forced_measurement` on ``rng``'s
    draws and its record; the pairs are not checked here."""
    block = _lockstep(state, target_pair, recovery_pair, lambda s, live: rng.random(),
                      1, max_attempts, routing)
    record = block.record(0)
    if record.target_outcomes()[-1] != state.model.vacuum:
        raise MaxAttemptsExceeded(
            f"no vacuum outcome on {record.target_pair} within {max_attempts} attempts")
    return block, record


def forced_measurement(state: StateVector, target_pair, recovery_pair, rng,
                       max_attempts: int = MAX_ATTEMPTS_DEFAULT,
                       routing: str = "over") -> tuple[StateVector, MeasurementRecord]:
    """Measure ``target_pair`` until it yields vacuum, undoing failures via
    ``recovery_pair``: a batch of one of :func:`forced_measurements`, run on
    the state's ``(dim,)`` amplitudes.

    Returns the post-measurement state (the teleported state, up to a
    trajectory-dependent global phase) and the outcome record.  Raises
    :class:`MaxAttemptsExceeded` when no vacuum outcome came within
    ``max_attempts`` attempts.
    """
    pairs = _checked_pairs(state, target_pair, recovery_pair, routing)
    block, record = _forced_block(state, *pairs, rng, max_attempts, routing)
    return block.final_state(0), record


# ---------------------------------------------------------------------------
# Braids from three forced measurements.
# ---------------------------------------------------------------------------


def _quad_steps(quad, direction: str):
    q1, q2, q3, q4 = quad
    if direction == "positive":
        return (((q1, q2), (q2, q3)), ((q2, q4), (q1, q2)), ((q2, q3), (q2, q4)))
    return (((q2, q4), (q2, q3)), ((q1, q2), (q2, q4)), ((q2, q3), (q1, q2)))


def direct_quad_braid(state: StateVector, quad, sign: int,
                      routing: str = "over") -> StateVector:
    """Exchange the outer leaves of a contiguous quad directly (the oracle path).

    The moving charge line crosses the two middle leaves per the routing
    convention on the way in (transport ``T``), is exchanged with the first
    leaf, and crosses back inversely (``T^dag``): ``T^dag B T`` applied as
    its sequence of local braids.  On states whose middle pair carries the
    vacuum channel this is exactly the braid of the outer anyons tensored
    with the untouched pair.
    """
    model, p = state.model, quad[0]
    moved, forward, backward = _transport(model, state.leaves, state.total,
                                          p, p + 3, routing)
    _, index, value = _braid_table(model, moved, state.total, p, sign)
    steps = forward + ((index, value),) + backward
    return state._replace_amps(_gather_all(steps, state.amps))


def _check_quad(state, quad, direction):
    """``quad`` as ints, after checking it and ``direction``."""
    quad = tuple(int(q) for q in quad)
    if list(quad) != list(range(quad[0], quad[0] + 4)):
        raise ProtocolError(f"quad {quad} must be four contiguous ascending leaves")
    if not (0 <= quad[0] and quad[3] < state.num_leaves):
        raise ProtocolError(f"quad {quad} out of range for {state.num_leaves} leaves")
    if direction not in ("positive", "inverse"):
        raise ProtocolError(f"direction must be 'positive' or 'inverse', got {direction!r}")
    return quad


def braid_oracle_state(state: StateVector, quad, direction: str,
                       routing: str = "over") -> StateVector:
    """The analytic target of :func:`measurement_braid`: the directly braided
    state in the protocol's phase convention.

    The direct exchange built from transport braids differs from the
    measurement-protocol output by a fixed phase, the inverse topological
    twist of the braided charge (its conjugate for the inverse direction);
    that twist factor is folded in here so that the protocol's total phase
    is exactly the product of its per-teleport phases.
    """
    return _braid_oracle(state, _check_quad(state, quad, direction), direction, routing)


def _braid_oracle(state: StateVector, quad, direction: str, routing: str) -> StateVector:
    """:func:`braid_oracle_state` of a checked quad and direction."""
    sign = +1 if direction == "positive" else -1
    twist = state.model.twist(state.leaves[quad[0]])
    braided = direct_quad_braid(state, quad, sign, routing)
    return braided._replace_amps((np.conj(twist) if sign > 0 else twist) * braided.amps)


def measurement_braid(state: StateVector, quad, direction: str, rng,
                      routing: str = "over",
                      max_attempts: int = MAX_ATTEMPTS_DEFAULT,
                      ) -> tuple[StateVector, BraidRecord]:
    """Braid the outer anyons of ``quad`` using three forced measurements.

    ``quad = (q1, q2, q3, q4)`` must be contiguous, with the computational
    charge on ``q1, q4`` and the entangled resource pair on ``(q2, q3)`` in
    the vacuum channel, the first step's recovery pair; it raises
    :class:`ProtocolError` otherwise.  ``direction="positive"``
    reproduces the counterclockwise exchange of ``q1`` and ``q4`` up to a
    global phase, with the resource pair restored in place; ``"inverse"``
    its inverse.

    Only the default ``routing="over"`` synthesizes the exchange; the
    "under" convention for the non-adjacent measurement is a physically
    different process and raises :class:`NotPhaseEquivalent` when the
    output fails to match the oracle.

    Each step phase is taken against the step's teleport reference, which
    the forced measurement's first attempt yields (:meth:`ForcedBlock.reference`),
    bit for bit equal to the projection of the step's input onto the vacuum
    of its target pair.
    """
    quad = _check_quad(state, quad, direction)
    steps = _quad_steps(quad, direction)
    _checked_pairs(state, *steps[0], routing)
    oracle = _braid_oracle(state, quad, direction, routing)
    records = []
    phases = []
    for target, recovery in steps:
        block, record = _forced_block(state, target, recovery, rng, max_attempts, routing)
        state = block.final_state(0)
        records.append(record)
        # a first-attempt vacuum leaves exactly the reference state
        reference = state if record.attempts == 1 else block.reference()
        phases.append(relative_phase(state, reference))
    total = relative_phase(state, oracle)
    fid = abs(inner(state, oracle))
    return state, BraidRecord(tuple(records), direction, total, tuple(phases),
                              quad, fid)
