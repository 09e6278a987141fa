"""Local gather-table kernel against the dense reference operators.

Every operator of the protocol is checked on ``build_array`` registers of
2 to 5 computational anyons (up to 14 leaves, dim 233) for Fibonacci,
Ising and su2_k k=3: bases, pair channel projectors, elementary braids,
transports, measurement projectors and quad-braid oracles.  A gather-table sequence is
turned into its matrix by applying it to the identity, which also
exercises the batched ``(dim, T)`` path.
"""

import numpy as np
import pytest

from anyonbraid import StateVector, build_array, random_state
from anyonbraid.fusion_space import (_basis, _braid_table, _gather_all,
                                     _projector_table, _transport)
from anyonbraid.measurement import _measurement_op, _resolve
from anyonbraid.teleport import direct_quad_braid

import dense_oracle as dense

TOL = 1e-12

ROUTINGS = ("over", "under")


@pytest.fixture(params=[2, 3, 4, 5], ids=lambda n: f"n_comp={n}")
def registers(request, protocol_models):
    """(model, layout, initial state) of each protocol model at one size."""
    return [(model, *build_array(model, a, request.param))
            for model, a in protocol_models]


def _matrix(tables, dim):
    return _gather_all(tables, np.eye(dim, dtype=complex))


def _close(local, reference):
    assert local.shape == reference.shape
    assert np.max(np.abs(local - reference), initial=0.0) < TOL


def _internals(chains):
    return tuple(map(tuple, chains[:, 1:-1].tolist()))


def test_basis_matches_depth_first_enumeration(registers):
    for model, _, state in registers:
        leaves, total = state.leaves, state.total
        assert _internals(_basis(model, leaves, total)) == dense._chain_trees(
            model, leaves, total)
        for pos in range(state.num_leaves - 1):
            # The resolved basis is never enumerated; the channels it
            # holds are those the pair's projectors are built for.
            trees = dense._resolved_trees(model, leaves, total, pos)
            chains = np.array([(leaves[0], *t, total) for t in trees])
            present, *_ = _projector_table(model, leaves, total, pos)
            assert present.tolist() == sorted(set(chains[:, max(pos, 1)].tolist()))


def test_every_f_move_site(registers):
    # Each pair projector is F^dag delta_c F, its F-move taken at the site.
    rng = np.random.default_rng(7)
    for model, _, state in registers:
        leaves, total, dim = state.leaves, state.total, state.dim
        probe = random_state(model, leaves, total, rng).amps
        for pos in range(state.num_leaves - 1):
            present, *table = _projector_table(model, leaves, total, pos)
            projections = _gather_all([table], probe)
            projectors = _matrix([table], dim)
            for c, projection, projector in zip(present.tolist(), projections, projectors):
                want = dense.projector_matrix(model, leaves, total, pos, c)
                _close(projection, want @ probe)
                _close(projector, want)
            _close(projections.sum(0), probe)


def test_every_braid_site_both_signs(registers):
    for model, _, state in registers:
        for pos in range(state.num_leaves - 1):
            for sign in (+1, -1):
                swapped, B = dense._braid_matrix(model, state.leaves, state.total, pos, sign)
                new_leaves, index, value = _braid_table(model, state.leaves, state.total,
                                                        pos, sign)
                assert new_leaves == swapped
                _close(_matrix([(index, value)], state.dim), B)


def test_every_transport_both_routings(registers):
    for model, _, state in registers:
        n, dim = state.num_leaves, state.dim
        for i in range(n - 1):
            for j in range(i + 1, n):
                for routing in ROUTINGS:
                    moved, T = dense.transport_matrix(model, state.leaves, state.total,
                                                      i, j, routing)
                    cur, forward, backward = _transport(model, state.leaves, state.total,
                                                        i, j, routing)
                    assert cur == moved
                    _close(_matrix(forward, dim), T)
                    _close(_matrix(backward, dim), T.conj().T)


def test_every_measurement_projector(registers):
    # The projections Pi_c T and the projectors T^dag Pi_c T are compared on
    # a batch of random probes; their factors are compared in full above.
    rng = np.random.default_rng(11)
    for model, _, state in registers:
        n, dim = state.num_leaves, state.dim
        probes = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        for i in range(n - 1):
            for j in range(i + 1, n):
                for routing in ROUTINGS if j > i + 1 else ROUTINGS[:1]:
                    moved, T = dense.transport_matrix(model, state.leaves, state.total,
                                                      i, j, routing)
                    _, channels = dense._pair_channels(model, moved, state.total, i)
                    op = _measurement_op(state, i, j, routing)
                    assert op.present.tolist() == sorted(set(channels.tolist()))
                    projections, weights = _resolve(op, probes)
                    for c, projection, weight in zip(op.present.tolist(), projections,
                                                     weights):
                        projector = dense.projector_matrix(model, moved, state.total, i, c)
                        reference = projector @ (T @ probes)
                        _close(projection, reference)
                        _close(weight, np.sum(np.abs(reference) ** 2, 0))
                        _close(_gather_all(op.backward, projection),
                               T.conj().T @ reference)


def test_every_quad_oracle(registers):
    for model, layout, state in registers:
        dim = state.dim
        for generator in range(1, len(layout.computational)):
            quad = layout.quad(generator)
            for sign in (+1, -1):
                for routing in ROUTINGS:
                    M = dense.quad_braid_matrix(model, state.leaves, state.total, quad,
                                                sign, routing)
                    columns = [direct_quad_braid(
                        StateVector(model, state.leaves, state.total, e,
                                    _chains=state.chains), quad, sign, routing).amps
                               for e in np.eye(dim, dtype=complex)]
                    _close(np.array(columns).T, M)
