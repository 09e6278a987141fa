"""Gather tables from local ranks against the sort-and-lookup oracle.

Registers of up to 7 leaves with mixed charges, every admissible total and
every position: both braid signs, the stacked channel projectors and
``attach_pair``, which must agree with :mod:`lookup_oracle` bit for bit,
padding slots included.  The projectors must also match the dense
``F^dag delta_c F`` of :mod:`dense_oracle` and be idempotent, Hermitian and
sum to the identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid import (RegisterTooLarge, StateVector, attach_pair, build_array,
                        load_builtin)
from anyonbraid.fusion_space import (MAX_DIM, MAX_LEAVES, _basis, _braid_table,
                                     _gather, _projector_table, _ranks)

import dense_oracle as dense
import lookup_oracle as oracle

MODELS = [load_builtin(name, k=k) for name, k in
          (("fibonacci", None), ("ising", None), ("su2_k", 2), ("su2_k", 3), ("su2_k", 4))]


@st.composite
def registers(draw):
    """A model and a leaf tuple of 2 to 7 charges, vacuum included."""
    model = draw(st.sampled_from(MODELS))
    leaves = tuple(draw(st.lists(st.integers(0, model.num_charges - 1),
                                 min_size=2, max_size=7)))
    return model, leaves


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _same_table(got, want):
    _same_bits(got[0], want[0])
    _same_bits(got[1], want[1])


def _check_projectors(model, leaves, total, pos):
    """The stacked projectors of pair ``(pos, pos+1)`` against the dense
    oracle, on the channels the basis carries."""
    present, *table = _projector_table(model, leaves, total, pos)
    _, channels = dense._pair_channels(model, leaves, total, pos)
    assert present.tolist() == sorted(set(channels.tolist()))
    dim = len(channels)
    projectors = _gather(table, np.eye(dim, dtype=complex))
    for c, projector in zip(present.tolist(), projectors):
        want = dense.projector_matrix(model, leaves, total, pos, c)
        assert np.max(np.abs(projector - want)) < 1e-12
        assert np.max(np.abs(projector @ projector - projector)) < 1e-12
        assert np.max(np.abs(projector - projector.conj().T)) < 1e-12
    assert np.max(np.abs(projectors.sum(0) - np.eye(dim))) < 1e-12


@settings(max_examples=100)  # five models of up to 7 leaves
@given(registers(), st.integers(0, 2 ** 32 - 1))
def test_tables_match_lookup_oracle(register, seed):
    model, leaves = register
    rng = np.random.default_rng(seed)
    totals = [t for t in range(model.num_charges) if len(_basis(model, leaves, t))]
    for total in totals:
        std = _basis(model, leaves, total)
        assert np.array_equal(std, oracle.chains(model, leaves, total))
        for pos in range(len(leaves) - 1):
            _check_projectors(model, leaves, total, pos)
            present, *table = _projector_table(model, leaves, total, pos)
            want_present, *want = oracle.projector_table(model, leaves, total, pos)
            _same_bits(present, want_present)
            _same_table(table, want)
            for sign in (+1, -1):
                swapped, *table = _braid_table(model, leaves, total, pos, sign)
                want_swapped, *want = oracle.braid_table(model, leaves, total, pos, sign)
                assert swapped == want_swapped
                _same_table(table, want)
        amps = rng.normal(size=len(std)) + 1j * rng.normal(size=len(std))
        state = StateVector(model, leaves, total, amps / np.linalg.norm(amps),
                            _chains=std)
        a = int(rng.integers(model.num_charges))
        for position in range(len(leaves) + 1):
            grown = attach_pair(state, position, a)
            new_leaves, want = oracle.attach_pair_amps(state, position, a)
            assert grown.leaves == new_leaves
            _same_bits(grown.amps, want)


def test_ranks_index_every_row(fibonacci, ising):
    """``sum_j terms[j, y_{j-1}, y_j]`` is each row's own index."""
    for model, n_comp in ((fibonacci, 5), (ising, 6)):
        _, state = build_array(model, "1" if model is fibonacci else "1/2", n_comp)
        _, terms = _ranks(model, state.leaves, state.total)
        chains = state.chains
        before = np.column_stack([np.zeros(len(chains), dtype=chains.dtype), chains[:, :-1]])
        columns = np.arange(chains.shape[1])
        ranks = terms[columns, before, chains].sum(1)
        assert np.array_equal(ranks, np.arange(len(chains)))


def test_register_limits_are_refused_before_enumeration(fibonacci):
    # Refused from the suffix counts alone: nothing of this size is built.
    with pytest.raises(RegisterTooLarge, match=r"\b165580141 basis states"):
        _basis(fibonacci, (1,) * 42, 0)
    with pytest.raises(RegisterTooLarge, match=f"limit of {MAX_LEAVES} leaves"):
        _ranks(fibonacci, (0,) * (MAX_LEAVES + 1), 0)
    # Fibonacci arrays of 10 and 11 computational anyons sit either side.
    counts, _ = _ranks(fibonacci, (1,) * 28, 0)
    assert counts[0, 1] == 196418 <= MAX_DIM
    with pytest.raises(RegisterTooLarge, match=r"\b1346269 basis states"):
        _ranks(fibonacci, (1,) * 32, 0)
