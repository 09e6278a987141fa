"""Pair tables read from one kernel per model and pair kind.

:func:`anyonbraid.fusion_space._pair_tables` takes the neighbourhood values,
source labels, counts and slot order from :func:`_pair_kernel`, built once
per model, pair charges and kind; each table must equal, bit for bit, the
one :mod:`pair_table_oracle` works out per call.  The kernel covers only the
neighbourhoods the pair's fusion rules admit, so it stays smaller than the
tables it serves.
"""

import numpy as np
import pytest

from anyonbraid import (BraidWord, build_array, check_resources, compile_word,
                        direct_braid_reference, execute, load_builtin)
from anyonbraid.fusion_space import _basis, _pair_phases, _pair_tables

import pair_table_oracle as oracle
from conftest import teleport_config


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(_nbytes(item) for item in value) if isinstance(value, tuple) else 0


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()


def _assert_tables_match(model, leaves, total, positions):
    for pos in positions:
        for sign in (+1, -1):
            _assert_same(_pair_tables(model, leaves, total, pos, sign),
                         oracle.braid_tables(model, leaves, total, pos, sign))
        _assert_same(_pair_tables(model, leaves, total, pos, "projector"),
                     oracle.projector_tables(model, leaves, total, pos))


@pytest.mark.parametrize("name, k, charge", [
    ("fibonacci", None, "1"), ("ising", None, "1/2"), ("ising", None, "1"),
    ("su2_k", 3, "1/2"), ("su2_k", 4, "1"), ("su2_k", 6, "3/2")])
@pytest.mark.parametrize("n_comp", [2, 3, 5])
def test_array_tables_match_per_call_builder(name, k, charge, n_comp):
    model = load_builtin(name, k=k)
    _, state = build_array(model, charge, n_comp)
    last = state.num_leaves - 2
    positions = sorted({0, 1, last // 2, last})
    _assert_tables_match(model, state.leaves, state.total, positions)


@pytest.mark.parametrize("leaves, total", [
    ((1, 2, 1, 3, 1), 2), ((1, 1, 2, 3, 2, 1), 0), ((3, 1, 2, 2, 1), 1)])
def test_mixed_leaf_tables_match_per_call_builder(su2_3, leaves, total):
    assert len(_basis(su2_3, leaves, total))
    _assert_tables_match(su2_3, leaves, total, range(len(leaves) - 1))


def test_teleport_setup_tables_match_per_call_builder(protocol_models):
    for model, a in protocol_models:
        state = teleport_config(model, a)
        _assert_tables_match(model, state.leaves, state.total, range(state.num_leaves - 1))


def _spin_half_run(k):
    """A fresh su2_k model after a braid check on a spin-1/2 array of 3
    anyons, which builds every kind of pair table."""
    model = load_builtin("su2_k", k=k)
    layout, state = build_array(model, "1/2", 3)
    word = BraidWord.parse("s1 s2'")
    final, _ = execute(compile_word(word, layout), state, np.random.default_rng(4))
    check_resources(layout, final)
    direct_braid_reference(word, layout, state)
    return model


def test_kernel_covers_only_admissible_neighbourhoods():
    model = _spin_half_run(7)
    m, N = model.num_charges, model.N != 0
    kernels = {key[1:]: value for key, value in model._cache.items()
               if key[0].__name__ == "_pair_kernel"}
    assert set(kernels) == {(1, 1, +1), (1, 1, -1), (1, 1, "projector")}
    for (a, b, kind), (sites, hoods, counts, labels, found, value) in kernels.items():
        c, d = (a, b) if kind == "projector" else (b, a)
        x, p, q = hoods
        assert np.array_equal(np.ravel_multi_index(hoods, (m,) * 3), sites)
        assert N[p, c, x].all() and N[x, d, q].all()
        assert len(sites) == sum(N[p_, c, x_] and N[x_, d, q_] for x_ in range(m)
                                 for p_ in range(m) for q_ in range(m))
        assert labels.shape == found.shape == value.shape
        assert labels.shape[1:] == counts.shape == (len(_pair_phases(model, a, b, kind)),
                                                     len(sites))


def test_kernel_bytes_below_its_tables_at_su2_15():
    model = _spin_half_run(15)
    kernel = tables = 0
    for key, value in model._cache.items():
        builder = key[0].__name__
        if builder == "_pair_kernel":
            kernel += _nbytes(value)
        elif builder in ("_braid_table", "_projector_table"):
            tables += _nbytes(value)
    assert 0 < kernel < tables
