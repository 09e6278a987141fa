"""Scale regressions: large registers and large models within fixed
memory budgets.

Fibonacci with 8 computational anyons has 22 leaves and dim 10946; a dense
dim x dim operator there is 1.9 GB, and a dense operator cache for one
braid exceeded 7.9 GB.  The local kernel keeps the whole run, operator
tables included, under the budget below.  With 10 anyons (dim 196,418)
gather tables built from local ranks kept it under 400 MiB (351 MiB); the
resolved chain matrices of a sort-based lookup alone took 420 MiB there.
Measuring each pair through its channel projectors, with no F-move tables
into a resolved basis, keeps it under 340 MiB (309 MiB).

A braid word can be arbitrarily long on fixed resources: ten thousand
generators on one Ising pair of computational anyons keep every state
normalised, the resource pair sharp and the phase bookkeeping exact.

su2_k at k=11 has 2,987,920 pentagon equations; a table of all their index
tuples peaked near 800 MB.  Joining left and right fusion trees block by
block brought the check to 220 MiB, and gathering each equation's factor
rows from copies of F with the summed index last, with only integer
offsets kept per tree, to 132 MiB.  Walking each fusion space as one block
of equations, with the outer factors gathered once per tree and one dense
copy of F, brought the whole of ``verify_consistency`` to 55 MiB, beside
the 45.6 MiB dense F.  Keeping F as its admissible rows, and reading every
factor from padded tables of them, brought building and verifying together
to 42 MiB.

``run`` prints the final state of a 28-leaf register as 6.3 million lines
of JSON.  A dict per row handed to ``json.dumps(indent=2)`` peaked at
665 MiB there; rows written chunk by chunk straight from the chain and
amplitude arrays stay within the budget below.
"""

import io
import json
import tracemalloc

import numpy as np

from anyonbraid import (BraidWord, build_array, check_resources, compile_word,
                        direct_braid_reference, execute, fidelity, load_builtin,
                        measurement_braid, random_encoded_state)
from anyonbraid.cli import _write_json
from anyonbraid.compiler import RESOURCE_TOL
from anyonbraid.fusion_space import NORM_TOL
from anyonbraid.teleport import PHASE_TOL

from state_oracle import state_to_dict

#: Peak traced allocation allowed for the whole run.
MEMORY_BUDGET_BYTES = 256 * 2 ** 20

#: Peak traced allocation allowed for the same check with 10 computational
#: anyons (28 leaves, dim 196,418); it measured 300 MiB.  Operator tables
#: dominate it; every resource pair is measured once, on the final state.
WIDE_BUDGET_BYTES = 340 * 2 ** 20

#: Peak traced allocation allowed to build and verify su2_k at k=11; it
#: measured 35.2 MiB.  F is kept as its 12,376 admissible rows (1.1 MiB),
#: and the check reads it through padded tables of about that size each.
VERIFY_BUDGET_BYTES = 52 * 2 ** 20

#: Peak traced allocation allowed to write the JSON of a Fibonacci state of
#: 10 computational anyons, the state itself not counted; it measured
#: 5.3 MiB, about one chunk of rows and its text.
STATE_WRITE_BUDGET_BYTES = 32 * 2 ** 20


def _checked_braid(n_comp, word, random_start):
    """Run ``word`` on a fresh Fibonacci array of ``n_comp`` anyons under
    tracemalloc; returns the register shape, braid count, oracle fidelity,
    resource defect and traced peak."""
    tracemalloc.start()
    try:
        model = load_builtin("fibonacci")  # fresh operator cache
        layout, state = build_array(model, "1", n_comp)
        if random_start:
            state = random_encoded_state(layout, np.random.default_rng(8))
        word = BraidWord.parse(word)
        final, records = execute(compile_word(word, layout), state,
                                 np.random.default_rng(9))
        oracle = direct_braid_reference(word, layout, state)
        oracle_fidelity = fidelity(final, oracle)
        defect = check_resources(layout, final)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (state.num_leaves, state.dim), len(records), oracle_fidelity, defect, peak


def test_fibonacci_22_leaves_braids_within_memory_budget():
    shape, braids, oracle_fidelity, defect, peak = _checked_braid(8, "s1 s7'", True)
    assert shape == (22, 10946)
    assert braids == 2
    assert oracle_fidelity >= 1.0 - 1e-9
    assert defect < RESOURCE_TOL
    assert peak < MEMORY_BUDGET_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"


def test_fibonacci_28_leaves_braids_within_memory_budget():
    shape, braids, oracle_fidelity, defect, peak = _checked_braid(10, "s1 s9'", False)
    assert shape == (28, 196418)
    assert braids == 2
    assert oracle_fidelity >= 1.0 - 1e-9
    assert defect < RESOURCE_TOL
    assert peak < WIDE_BUDGET_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"


class _LineCounter:
    """A sink that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")


def _random_register_state(n_comp, seed):
    """A Fibonacci register state of ``n_comp`` computational anyons with
    random amplitudes, which print at full length."""
    _, state = build_array(load_builtin("fibonacci"), "1", n_comp)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    return state._replace_amps(amps / np.linalg.norm(amps))


def _state_lines(state):
    """Lines of ``{"final_state": state}`` at indent 2: the rows' internal
    labels plus six more lines per row, and the leaves plus eleven more."""
    return state.dim * (state.num_leaves - 2 + 6) + state.num_leaves + 11


def test_streamed_state_matches_reference_dump():
    state = _random_register_state(8, 60)
    assert (state.num_leaves, state.dim) == (22, 10946)
    out = io.StringIO()
    _write_json({"final_state": state}, out)
    text = out.getvalue()
    assert text == json.dumps({"final_state": state_to_dict(state)}, indent=2) + "\n"
    assert text.count("\n") == _state_lines(state)


def test_fibonacci_28_leaves_state_streams_within_memory_budget():
    state = _random_register_state(10, 61)
    assert (state.num_leaves, state.dim) == (28, 196418)
    sink = _LineCounter()
    tracemalloc.start()
    try:
        _write_json({"final_state": state}, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.lines == _state_lines(state)
    assert peak < STATE_WRITE_BUDGET_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"


def test_su2_k11_verifies_within_memory_budget():
    tracemalloc.start()
    try:
        report = load_builtin("su2_k", k=11).verify_consistency()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < VERIFY_BUDGET_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"


def test_soak_ten_thousand_generators_on_fixed_resources(ising):
    layout, _ = build_array(ising, "1/2", 2)
    start = random_encoded_state(layout, np.random.default_rng(30))
    generators = np.random.default_rng(31).choice([1, -1], size=10_000)
    rng = np.random.default_rng(32)
    state = start
    for g in generators.tolist():
        state, record = measurement_braid(state, layout.quad(1),
                                          "positive" if g > 0 else "inverse", rng)
        assert abs(np.linalg.norm(state.amps) - 1.0) <= NORM_TOL
        assert check_resources(layout, state) < RESOURCE_TOL
        assert abs(record.extracted_phase - np.prod(record.step_phases)) <= PHASE_TOL
    oracle = direct_braid_reference(BraidWord(tuple(generators.tolist())), layout, start)
    assert fidelity(state, oracle) >= 1.0 - 1e-9
