import numpy as np
import pytest
from hypothesis import settings

from anyonbraid import (StateVector, attach_pair, entangled_pair_state,
                        load_builtin, project_pair, random_state)
from anyonbraid.fusion_space import _braid_table, _gather
from anyonbraid.measurement import _measurement_op, _resolve, _sample_columns

import dense_oracle as dense

# Property tests draw the same examples on every run and have no per-example
# deadline, so they neither flake nor trip on a slow shared machine.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=25)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fibonacci():
    return load_builtin("fibonacci")


@pytest.fixture(scope="session")
def ising():
    return load_builtin("ising")


@pytest.fixture(scope="session")
def su2_2():
    return load_builtin("su2_k", k=2)


@pytest.fixture(scope="session")
def su2_3():
    return load_builtin("su2_k", k=3)


@pytest.fixture(scope="session")
def protocol_models(ising, fibonacci, su2_3):
    """The built-in models exercised at protocol level, with their
    computational charges."""
    return [(ising, "1/2"), (fibonacci, "1"), (su2_3, "1/2")]


def sample_pair(state, i, j, rng, routing="over"):
    """One Born-sampled measurement of pair ``(i, j)`` through the sampler
    every command runs, a batch of one with the scalar draw
    ``rng.random()``: the charge found, its probability and the collapsed
    state."""
    op = _measurement_op(state, i, j, routing)
    charge, prob, post = _sample_columns(op, *_resolve(op, state.amps), rng.random())
    return state.model.charges[charge], float(prob), state._replace_amps(post)


def braid(state, pos, sign=+1):
    """The elementary exchange of leaves ``pos`` and ``pos + 1``, applied
    as its cached gather table."""
    leaves, index, value = _braid_table(state.model, state.leaves, state.total, pos, sign)
    return StateVector(state.model, leaves, state.total, _gather((index, value), state.amps))


def teleport_config(model, a):
    """4-leaf teleport setup: resource pair on leaves (0, 1), encoded state
    carried by leaves 2, 3.  Target pair (1, 2), recovery pair (0, 1)."""
    return attach_pair(entangled_pair_state(model, a), 2, a)


def random_teleport_state(model, a, rng):
    """Random encoded state of the teleport configuration."""
    shape = teleport_config(model, a)
    state = random_state(model, shape.leaves, shape.total, rng)
    state, _ = project_pair(state, 0, 1, 0)
    return state


def quad_config(model, a):
    """Braid quad: computational anyons on leaves 0 and 3, resource pair in
    the vacuum channel on leaves (1, 2)."""
    return attach_pair(entangled_pair_state(model, a), 1, model.dual(a).label)


def random_quad_state(model, a, rng):
    shape = quad_config(model, a)
    state = random_state(model, shape.leaves, shape.total, rng)
    state, _ = project_pair(state, 1, 2, 0)
    return state


def random_register_state(layout, rng):
    from anyonbraid import random_encoded_state

    return random_encoded_state(layout, rng)


def five_leaf_config(model, a):
    """Teleport setup with a real encoded register: resource pair (0, 1),
    anyon 2 carries state information entangled with leaves 3, 4."""
    return attach_pair(attach_pair(entangled_pair_state(model, a), 2, a), 4, a)


def random_five_leaf_state(model, a, rng):
    shape = five_leaf_config(model, a)
    state = random_state(model, shape.leaves, shape.total, rng)
    state, _ = project_pair(state, 0, 1, 0)
    return state


def rerooted_reference(state):
    """Independent teleport oracle for target pair (1, 2), recovery (0, 1).

    Amplitudes are carried over row by row: the chain label pattern
    (l_0, 0, a, rest...) of the input equals the resolved-basis pattern
    (l_0, pair charge 0, a, rest...) of the output; one inverse F-move,
    the adjoint of the dense F-move matrix, returns to the standard chain.
    No projector is involved.
    """
    model = state.model
    resolved, U = dense._resolve_matrix(model, state.leaves, state.total, 1)
    res_index = {(state.leaves[0], *tree, state.total): k
                 for k, tree in enumerate(resolved)}
    amps = np.zeros(len(resolved), dtype=complex)
    for row, amp in zip(map(tuple, state.chains.tolist()), state.amps):
        if amp == 0:
            continue
        assert row[1] == 0, "input must have (0,1) in the vacuum channel"
        amps[res_index[row]] = amp
    return StateVector(model, state.leaves, state.total, U.conj().T @ amps)
