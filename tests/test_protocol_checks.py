"""The protocol's checks, each run once where it is needed.

A braid is three forced measurements on a contiguous quad.  Its first
step's recovery pair is the quad's resource pair; the recovery pair of
steps 2 and 3 is the target pair the step before has just forced into the
vacuum; and a braid changes no resource pair but its own.  So a check of
the resource pair before each braid, and one check of every resource pair
on the final state, catch any pair a word leaves out of the vacuum.  The
first two tests pin those facts; the others count the checks a braid and
a command make.  A braid builds its oracle once, after its third
measurement, and compares each state with its reference in one inner
product; a command builds the direct-braid word oracle only when its
payload prints the comparison.
"""

import numpy as np
import pytest

from anyonbraid import (build_array, measurement_braid, pair_charge_distribution,
                        random_encoded_state)
from anyonbraid import compiler, teleport
from anyonbraid.cli import main
from anyonbraid.compiler import RESOURCE_TOL, array_layout
from anyonbraid.teleport import VACUUM_TOL, _quad_steps


def vacuum_weights(layout, state):
    """The vacuum weight of every resource pair of ``layout`` on ``state``."""
    vacuum = layout.model.vacuum
    return np.array([pair_charge_distribution(state, *pair).get(vacuum, 0.0)
                     for pair in layout.resources])


@pytest.mark.parametrize("name,a,n_comp", [("fibonacci", "1", 4), ("ising", "1/2", 5)])
def test_a_braid_moves_no_other_resource_pair(request, name, a, n_comp):
    model = request.getfixturevalue(name)
    layout, _ = build_array(model, a, n_comp)
    rng = np.random.default_rng([61, n_comp])
    generators = [g for i in range(1, n_comp) for g in (i, -i)]
    for _ in range(4):
        state = random_encoded_state(layout, rng)
        before = vacuum_weights(layout, state)
        for g in rng.choice(generators, size=6):
            quad = layout.quad(abs(g))
            state, _ = measurement_braid(state, quad, "positive" if g > 0 else "inverse",
                                         rng)
            after = vacuum_weights(layout, state)
            others = np.arange(len(after)) != layout.resources.index(quad[1:3])
            assert np.abs(after - before)[others].max(initial=0.0) <= 1e-12
            assert after[~others][0] >= 1.0 - RESOURCE_TOL
            before = after


def test_recovery_pairs_of_steps_2_and_3_start_in_the_vacuum(protocol_models, monkeypatch):
    starts = []  # (recovery pair, its vacuum weight) of every forced measurement
    lockstep = teleport._lockstep

    def spy(state, target_pair, recovery_pair, *args, **kwargs):
        dist = pair_charge_distribution(state, *recovery_pair)
        starts.append((tuple(recovery_pair), dist.get(state.model.vacuum, 0.0)))
        return lockstep(state, target_pair, recovery_pair, *args, **kwargs)

    monkeypatch.setattr(teleport, "_lockstep", spy)
    rng = np.random.default_rng(62)
    for model, a in protocol_models:
        layout = array_layout(model, a, 3)
        for direction in ("positive", "inverse"):
            for generator in (1, 2):
                quad = layout.quad(generator)
                steps = _quad_steps(quad, direction)
                # the resource pair first, then the target the step before forced
                assert [recovery for _, recovery in steps] == [
                    quad[1:3], steps[0][0], steps[1][0]]
                for _ in range(5):
                    starts.clear()
                    measurement_braid(random_encoded_state(layout, rng), quad, direction,
                                      rng)
                    assert [pair for pair, _ in starts] == [r for _, r in steps]
                    assert min(w for _, w in starts) >= 1.0 - VACUUM_TOL


def _counting(monkeypatch, module, name, calls=None):
    """Record ``name`` in ``calls`` (a new list by default) on each call of
    ``module.name``; returns the list."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_braid_checks_its_output_after_its_measurements(fibonacci, monkeypatch):
    calls = _counting(monkeypatch, teleport, "_lockstep")
    _counting(monkeypatch, teleport, "_braid_oracle", calls)
    inner = _counting(monkeypatch, teleport, "inner")
    layout, state = build_array(fibonacci, "1", 3)
    measurement_braid(state, layout.quad(1), "positive", np.random.default_rng(63))
    assert calls == ["_lockstep"] * 3 + ["_braid_oracle"]
    # one overlap per step phase, and one for the oracle's phase and fidelity
    assert len(inner) == 4


@pytest.mark.parametrize("compare", [None, "s1' s2 s1 s2"])
def test_braid_check_runs_each_check_once(capsys, monkeypatch, compare):
    pairs = _counting(monkeypatch, teleport, "_checked_pairs")
    resources = _counting(monkeypatch, compiler, "check_resources")
    oracles = _counting(monkeypatch, compiler, "direct_braid_reference")
    word = "s1 s2 s1 s2'"
    argv = ["braid-check", "--model", "fibonacci", "--n-computational", "3",
            "--word", word, "--seed", "7", "--random-state"]
    if compare:
        argv += ["--compare-word", compare]
    assert main(argv) == 0
    capsys.readouterr()
    braids = len(word.split()) + (len(compare.split()) if compare else 0)
    assert len(pairs) == braids
    assert len(resources) == (2 if compare else 1)
    # the word oracle is built only where the payload prints its comparison
    assert len(oracles) == (0 if compare else 1)


def test_run_checks_resources_once(capsys, monkeypatch, tmp_path):
    schedule = tmp_path / "schedule.json"
    assert main(["compile", "--model", "ising", "--word", "s1 s2' s3",
                 "--n-computational", "4", "--output", str(schedule)]) == 0
    pairs = _counting(monkeypatch, teleport, "_checked_pairs")
    resources = _counting(monkeypatch, compiler, "check_resources")
    oracles = _counting(monkeypatch, compiler, "direct_braid_reference")
    assert main(["run", "--schedule", str(schedule), "--seed", "3"]) == 0
    capsys.readouterr()
    assert (len(pairs), len(resources), len(oracles)) == (3, 1, 1)
