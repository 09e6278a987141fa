"""Acceptance suite: one pass/fail line per criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from anyonbraid import (BraidWord, build_array, compile_word,
                        direct_braid_reference, execute,
                        expected_attempt_bound, failure_tail_probability,
                        fidelity, forced_measurement, load_builtin,
                        measurement_braid, pair_charge_distribution,
                        random_encoded_state)
from anyonbraid.cli import main as cli_main

from conftest import (random_five_leaf_state, random_quad_state,
                      rerooted_reference, teleport_config)

FIDELITY_TOL = 1e-9
RESIDUAL_TOL = 1e-10
PHASE_TOL = 1e-9


def _report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{name}]: {verdict}  ({detail})")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def test_criterion_1_model_consistency():
    t0 = time.perf_counter()
    worst = {"pentagon": 0.0, "hexagon": 0.0, "unitarity": 0.0,
             "qdim": 0.0, "vacuum_probability": 0.0}
    specs = [("fibonacci", None), ("ising", None)]
    specs += [("su2_k", k) for k in range(2, 11)]
    for name, k in specs:
        model = load_builtin(name, k=k)
        report = model.verify_consistency(RESIDUAL_TOL)
        worst["pentagon"] = max(worst["pentagon"], report.max_pentagon_residual)
        worst["hexagon"] = max(worst["hexagon"], report.max_hexagon_residual)
        worst["unitarity"] = max(worst["unitarity"], report.max_unitarity_residual)
        worst["qdim"] = max(worst["qdim"], report.qdim_residual)
        worst["vacuum_probability"] = max(worst["vacuum_probability"],
                                          model.vacuum_probability_residual())
    elapsed = time.perf_counter() - t0
    ok = all(v < RESIDUAL_TOL for v in worst.values()) and elapsed < 10.0
    detail = (f"worst residuals pent={worst['pentagon']:.2e} "
              f"hex={worst['hexagon']:.2e} unit={worst['unitarity']:.2e} "
              f"qdim={worst['qdim']:.2e} prob-id={worst['vacuum_probability']:.2e}, "
              f"{elapsed:.1f}s < 10s")
    _report(1, "model consistency, Fibonacci/Ising/SU(2)_2..10", ok, detail)


def test_criterion_2_teleportation_fidelity():
    worst = 1.0
    for name, k, a in [("ising", None, "1/2"), ("fibonacci", None, "1"),
                       ("su2_k", 3, "1/2")]:
        model = load_builtin(name, k=k)
        rng = np.random.default_rng(2024)
        for t in range(100):
            state = random_five_leaf_state(model, a, rng)
            out, _ = forced_measurement(state, (1, 2), (0, 1),
                                        np.random.default_rng([2, t]))
            worst = min(worst, fidelity(out, rerooted_reference(state)))
    ok = worst >= 1.0 - FIDELITY_TOL
    _report(2, "teleportation fidelity, 100 random states per model", ok,
            f"min fidelity {worst:.12f} >= 1 - 1e-9")


def test_criterion_3_forced_measurement_statistics():
    t0 = time.perf_counter()
    n_trials = 10_000
    failures = []
    for name, k, a in [("ising", None, "1/2"), ("fibonacci", None, "1"),
                       ("su2_k", 3, "1/2")]:
        model = load_builtin(name, k=k)
        initial = teleport_config(model, a)
        da2 = expected_attempt_bound(model, a)
        attempts = []
        per_e = {}
        for t in range(n_trials):
            _, record = forced_measurement(initial, (1, 2), (0, 1),
                                           np.random.default_rng([3, t]))
            attempts.append(record.attempts)
            for e, f in zip(record.outcomes[0::2], record.target_outcomes()):
                stats = per_e.setdefault(e.label, [0, 0])
                stats[0] += 1
                stats[1] += int(f.index == 0)
        for label, (count, hits) in per_e.items():
            expected = model.qd[model.charge(label).index] / da2
            sigma = math.sqrt(expected * (1 - expected) / count)
            if abs(hits / count - expected) > 3 * sigma:
                failures.append(f"{model.name} P(f=0|e={label})")
        mean = float(np.mean(attempts))
        sem = float(np.std(attempts, ddof=1)) / math.sqrt(n_trials)
        if mean > da2 + 3 * sem:
            failures.append(f"{model.name} mean attempts {mean:.3f} > bound")
        if name == "ising" and abs(mean - 2.0) > 3 * sem:
            failures.append(f"ising mean {mean:.3f} != 2.0")
        for horizon in (5, 10, 20):
            bound = failure_tail_probability(model, a, horizon)
            frac = sum(x > horizon for x in attempts) / n_trials
            sigma = math.sqrt(bound * (1 - bound) / n_trials)
            if frac > bound + 3 * sigma:
                failures.append(f"{model.name} tail(>{horizon})")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(3, "forced-measurement statistics, 10^4 trials per model", ok,
            f"violations: {failures or 'none'}, {elapsed:.1f}s < 60s")


def test_criterion_4_braid_synthesis_every_quad():
    worst_fid = 1.0
    worst_resource = 0.0
    worst_roundtrip = 1.0
    for name, k, a in [("ising", None, "1/2"), ("fibonacci", None, "1"),
                       ("su2_k", 3, "1/2")]:
        model = load_builtin(name, k=k)
        for n_comp in (2, 3):  # 4-leaf and 8-leaf registers
            layout, _ = build_array(model, a, n_comp)
            assert layout.n_leaves <= 8
            rng = np.random.default_rng([4, n_comp])
            for generator in range(1, n_comp):
                quad = layout.quad(generator)
                for t in range(50):
                    state = random_encoded_state(layout, rng)
                    word = BraidWord((generator,))
                    final, records = execute(compile_word(word, layout), state,
                                             np.random.default_rng([4, generator, t]))
                    oracle = direct_braid_reference(word, layout, state)
                    worst_fid = min(worst_fid, fidelity(final, oracle))
                    dist = pair_charge_distribution(final, quad[1], quad[2])
                    worst_resource = max(worst_resource,
                                         abs(1.0 - dist[model.vacuum]))
                    back, _ = execute(compile_word(word.inverse(), layout), final,
                                      np.random.default_rng([5, generator, t]))
                    worst_roundtrip = min(worst_roundtrip, fidelity(back, state))
    ok = (worst_fid >= 1 - FIDELITY_TOL and worst_resource < RESIDUAL_TOL
          and worst_roundtrip >= 1 - FIDELITY_TOL)
    _report(4, "braid synthesis, every quad in registers up to 8 leaves", ok,
            f"min fidelity {worst_fid:.12f}, resource defect {worst_resource:.2e}, "
            f"min positive∘inverse fidelity {worst_roundtrip:.12f}")


def test_criterion_5_braid_relations():
    t0 = time.perf_counter()
    worst = 1.0
    cases = []
    for name, a in [("ising", "1/2"), ("fibonacci", "1")]:
        model = load_builtin(name)
        # Yang-Baxter on 3 computational anyons
        layout, _ = build_array(model, a, 3)
        state = random_encoded_state(layout, np.random.default_rng(55))
        lhs, _ = execute(compile_word(BraidWord.parse("s1 s2 s1"), layout),
                         state, np.random.default_rng(56))
        rhs, _ = execute(compile_word(BraidWord.parse("s2 s1 s2"), layout),
                         state, np.random.default_rng(57))
        f = fidelity(lhs, rhs)
        cases.append(f"{name} YB {f:.10f}")
        worst = min(worst, f)
        # far commutation on 4 computational anyons
        layout, _ = build_array(model, a, 4)
        state = random_encoded_state(layout, np.random.default_rng(58))
        lhs, _ = execute(compile_word(BraidWord.parse("s1 s3"), layout),
                         state, np.random.default_rng(59))
        rhs, _ = execute(compile_word(BraidWord.parse("s3 s1"), layout),
                         state, np.random.default_rng(60))
        f = fidelity(lhs, rhs)
        cases.append(f"{name} far-comm {f:.10f}")
        worst = min(worst, f)
    elapsed = time.perf_counter() - t0
    ok = worst >= 1 - FIDELITY_TOL and elapsed < 120.0
    _report(5, "braid relations through the measurement pathway", ok,
            f"{'; '.join(cases)}, {elapsed:.1f}s < 120s")


def test_criterion_6_phase_bookkeeping():
    worst_match = 0.0
    worst_additivity = 0.0
    longest = 0
    for name, k, a in [("ising", None, "1/2"), ("fibonacci", None, "1"),
                       ("su2_k", 3, "1/2"), ("su2_k", 2, "1/2")]:
        model = load_builtin(name, k=k)
        rng = np.random.default_rng(66)
        for t in range(6):
            s1 = random_quad_state(model, a, rng)
            s2 = random_quad_state(model, a, rng)
            for direction in ("positive", "inverse"):
                _, r1 = measurement_braid(s1, (0, 1, 2, 3), direction,
                                          np.random.default_rng([6, t]))
                _, r2 = measurement_braid(s2, (0, 1, 2, 3), direction,
                                          np.random.default_rng([6, t]))
                assert all(x.outcomes == y.outcomes
                           for x, y in zip(r1.steps, r2.steps)), \
                    "replay produced different outcome strings"
                worst_match = max(worst_match,
                                  abs(r1.extracted_phase - r2.extracted_phase))
                for rec in (r1, r2):
                    worst_additivity = max(
                        worst_additivity,
                        abs(rec.extracted_phase - np.prod(rec.step_phases)))
                longest = max(longest, max(r1.attempts))
    ok = worst_match < PHASE_TOL and worst_additivity < PHASE_TOL
    _report(6, "phase depends only on outcomes; three-step phase is additive",
            ok, f"max phase mismatch {worst_match:.2e}, "
                f"max additivity defect {worst_additivity:.2e}, "
                f"longest forced measurement {longest} attempts")


def test_criterion_7_determinism_of_stochastic_commands():
    commands = [
        ["teleport-stats", "--model", "fibonacci", "--seed", "77",
         "--trials", "200", "--trace"],
        ["braid-check", "--model", "ising", "--word", "s1 s2'", "--seed", "78",
         "--n-computational", "3", "--random-state"],
        ["braid-check", "--model", "su2_k", "--k", "3", "--word", "s1",
         "--seed", "79"],
    ]
    mismatches = []
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0, f"{argv} exited {code}"
            outputs.append(buf.getvalue())
        if outputs[0] != outputs[1]:
            mismatches.append(argv[0])
    ok = not mismatches
    _report(7, "stochastic commands are byte-reproducible", ok,
            f"commands checked: {len(commands)}, mismatches: {mismatches or 'none'}")
