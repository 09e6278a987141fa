"""Scale regressions: large registers and large models within fixed
memory budgets.

Fibonacci with 8 computational anyons has 22 leaves and dim 10946; a dense
dim x dim operator there is 1.9 GB, and a dense operator cache for one
braid exceeded 7.9 GB.  The local kernel keeps the whole run, operator
tables included, under the budget below.

su2_k at k=11 has 2,987,920 pentagon equations; a table of all their index
tuples peaked near 800 MB.  Joining left and right fusion trees block by
block keeps the check under half of that.
"""

import tracemalloc

import numpy as np

from anyonbraid import (BraidWord, build_array, check_resources, compile_word,
                        direct_braid_reference, execute, fidelity, load_builtin,
                        random_encoded_state)
from anyonbraid.compiler import RESOURCE_TOL

#: Peak traced allocation allowed for the whole run.
MEMORY_BUDGET_BYTES = 256 * 2 ** 20

#: Peak traced allocation allowed to verify su2_k at k=11.
VERIFY_BUDGET_BYTES = 450 * 2 ** 20


def test_fibonacci_22_leaves_braids_within_memory_budget():
    tracemalloc.start()
    try:
        model = load_builtin("fibonacci")  # fresh operator cache
        layout, initial = build_array(model, "1", 8)
        assert (initial.num_leaves, initial.dim) == (22, 10946)
        state = random_encoded_state(layout, np.random.default_rng(8))
        word = BraidWord.parse("s1 s7'")
        final, records = execute(compile_word(word, layout), state,
                                 np.random.default_rng(9))
        oracle = direct_braid_reference(word, layout, state)
        oracle_fidelity = fidelity(final, oracle)
        defect = check_resources(layout, final)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2
    assert oracle_fidelity >= 1.0 - 1e-9
    assert defect < RESOURCE_TOL
    assert peak < MEMORY_BUDGET_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"


def test_su2_k11_verifies_within_memory_budget():
    model = load_builtin("su2_k", k=11)
    tracemalloc.start()
    try:
        report = model.verify_consistency()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < VERIFY_BUDGET_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"
