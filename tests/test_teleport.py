"""Forced measurement, teleportation fidelity, attempt statistics, braids."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyonbraid import (MaxAttemptsExceeded, NotPhaseEquivalent,
                        ProtocolError, StateVector, attach_pair,
                        braid_oracle_state, expected_attempt_bound,
                        expected_mean_attempts, failure_tail_probability,
                        fidelity, forced_measurement, forced_measurements,
                        measurement_braid, pair_charge_distribution, project_pair,
                        random_encoded_state, random_state, relative_phase)
from anyonbraid.compiler import array_layout
from anyonbraid.streams import TrialStreams
from anyonbraid.teleport import _quad_steps, direct_quad_braid

from conftest import (five_leaf_config, random_five_leaf_state,
                      random_quad_state, rerooted_reference, teleport_config)
from teleport_oracle import teleport_reference

PHI = (1 + math.sqrt(5)) / 2


def encoded_subspace_states(model, a):
    """All basis states of the five-leaf configuration with (0, 1) in vacuum."""
    shape = five_leaf_config(model, a)
    states = []
    for n, pair_charge in enumerate(shape.chains[:, 1]):
        if pair_charge != 0:
            continue
        amps = np.zeros(shape.dim, dtype=complex)
        amps[n] = 1.0
        states.append(StateVector(model, shape.leaves, shape.total, amps))
    return states


class TestForcedMeasurement:
    def test_teleports_basis_states(self, protocol_models):
        for model, a in protocol_models:
            for state in encoded_subspace_states(model, a):
                rng = np.random.default_rng([1, state.amps.argmax()])
                out, record = forced_measurement(state, (1, 2), (0, 1), rng)
                assert fidelity(out, rerooted_reference(state)) == pytest.approx(1.0, abs=1e-9)

    def test_teleports_random_states(self, protocol_models):
        rng = np.random.default_rng(41)
        for model, a in protocol_models:
            for t in range(25):
                state = random_five_leaf_state(model, a, rng)
                out, record = forced_measurement(state, (1, 2), (0, 1),
                                                 np.random.default_rng([2, t]))
                assert fidelity(out, rerooted_reference(state)) >= 1 - 1e-9
                assert fidelity(out, teleport_reference(state, (1, 2))) >= 1 - 1e-9

    def test_block_reference_is_teleport_reference(self, protocol_models):
        # every block's reference is the analytic teleported state: bit for
        # bit for a block of one, from column 0 of a larger block; a trial
        # that drew the vacuum at once ends in it exactly
        rng = np.random.default_rng(42)
        for model, a in protocol_models:
            state = random_five_leaf_state(model, a, rng)
            want = teleport_reference(state, (1, 2))
            firsts = set()
            for t in range(12):
                single, = forced_measurements(state, (1, 2), (0, 1),
                                              TrialStreams(43, [t]))
                firsts.add(int(single.outcomes[0, 0]))
                assert np.array_equal(single.reference().amps, want.amps)
                if single.outcomes[0, 0] == 0:  # the vacuum at once
                    assert np.array_equal(single.final_state(0).amps, want.amps)
                block, = forced_measurements(state, (1, 2), (0, 1),
                                             TrialStreams(43, range(t, t + 3)))
                np.testing.assert_allclose(block.reference().amps, want.amps,
                                           rtol=0, atol=1e-12)
            assert 0 in firsts and len(firsts) > 1

    def test_record_invariants(self, fibonacci):
        state = teleport_config(fibonacci, "1")
        for t in range(40):
            rng = np.random.default_rng([3, t])
            out, record = forced_measurement(state, (1, 2), (0, 1), rng)
            assert record.outcomes[0] == fibonacci.vacuum
            assert record.outcomes[-1] == fibonacci.vacuum
            assert all(f.index != 0 for f in record.target_outcomes()[:-1])
            assert record.attempts == len(record.outcomes) // 2
            assert 0 < record.trajectory_probability <= 1.0
            assert pair_charge_distribution(out, 1, 2)[fibonacci.vacuum] == pytest.approx(1.0)

    def test_definite_target_succeeds_first_try(self):
        # Abelian charges are the one case where target and recovery pairs
        # can be vacuum-sharp simultaneously: one attempt, state unchanged
        from test_model_io import Z3_TEXT
        from anyonbraid import parse_model_text

        z3 = parse_model_text(Z3_TEXT)
        state = teleport_config(z3, "1")
        rng = np.random.default_rng(4)
        out, record = forced_measurement(state, (1, 2), (0, 1), rng)
        assert record.attempts == 1
        assert fidelity(out, teleport_reference(state, (1, 2))) == pytest.approx(1.0, abs=1e-9)

    def test_recovery_must_be_vacuum(self, fibonacci):
        rng = np.random.default_rng(5)
        state = random_state(fibonacci, ("1",) * 4, "0", rng)
        if pair_charge_distribution(state, 0, 1)[fibonacci.vacuum] > 1 - 1e-9:
            pytest.skip("random state accidentally vacuum")
        with pytest.raises(ProtocolError):
            forced_measurement(state, (1, 2), (0, 1), rng)

    def test_pairs_must_overlap(self, fibonacci):
        state = teleport_config(fibonacci, "1")
        with pytest.raises(ProtocolError):
            forced_measurement(state, (2, 3), (0, 1), np.random.default_rng(6))

    def test_max_attempts_exceeded(self, ising):
        state = teleport_config(ising, "1/2")
        # scan for a seed whose first target outcome is the non-vacuum channel
        for seed in range(50):
            rng = np.random.default_rng(seed)
            if rng.random() >= 0.5:
                with pytest.raises(MaxAttemptsExceeded):
                    forced_measurement(state, (1, 2), (0, 1),
                                       np.random.default_rng(seed), max_attempts=1)
                return
        pytest.fail("no failing seed found")


class TestAttemptStatistics:
    def test_bounds(self, ising, fibonacci):
        assert expected_attempt_bound(ising, "1/2") == pytest.approx(2.0)
        assert expected_attempt_bound(fibonacci, "1") == pytest.approx(PHI ** 2)
        assert expected_attempt_bound(ising, "0") == pytest.approx(1.0)

    def test_markov_mean_closed_form(self, ising, fibonacci):
        assert expected_mean_attempts(ising, "1/2") == pytest.approx(2.0)
        # two-state chain: E_0 = 1 + phi^-1 * X with X = 1/(1 - phi^-2 - phi^-4)
        x = 1.0 / (1 - PHI ** -2 - PHI ** -4)
        assert expected_mean_attempts(fibonacci, "1") == pytest.approx(1 + PHI ** -1 * x)
        assert expected_mean_attempts(fibonacci, "1") <= PHI ** 2
        assert expected_mean_attempts(fibonacci, "0") == pytest.approx(1.0)

    def test_failure_tail_values(self, ising):
        assert failure_tail_probability(ising, "1/2", 20) == pytest.approx(0.5 ** 20)
        assert failure_tail_probability(ising, "1/2", 0) == pytest.approx(1.0)
        assert failure_tail_probability(ising, "0", 7) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            failure_tail_probability(ising, "1/2", -1)

    def test_ising_geometric_attempts(self, ising):
        state = teleport_config(ising, "1/2")
        n = 2000
        attempts = []
        for t in range(n):
            _, record = forced_measurement(state, (1, 2), (0, 1),
                                           np.random.default_rng([8, t]))
            attempts.append(record.attempts)
        mean = np.mean(attempts)
        sem = np.std(attempts, ddof=1) / math.sqrt(n)
        assert abs(mean - 2.0) < 3 * sem

    def test_tail_within_bound(self, fibonacci):
        state = teleport_config(fibonacci, "1")
        n = 2000
        attempts = [forced_measurement(state, (1, 2), (0, 1),
                                       np.random.default_rng([9, t]))[1].attempts
                    for t in range(n)]
        for horizon in (5, 10):
            bound = failure_tail_probability(fibonacci, "1", horizon)
            frac = sum(a > horizon for a in attempts) / n
            assert frac <= bound + 3 * math.sqrt(bound * (1 - bound) / n)

    def test_su2_3_mean_matches_markov_chain(self, su2_3):
        state = teleport_config(su2_3, "1/2")
        n = 2000
        attempts = [forced_measurement(state, (1, 2), (0, 1),
                                       np.random.default_rng([10, t]))[1].attempts
                    for t in range(n)]
        want = expected_mean_attempts(su2_3, "1/2")
        sem = np.std(attempts, ddof=1) / math.sqrt(n)
        assert abs(np.mean(attempts) - want) < 3 * sem
        assert want <= expected_attempt_bound(su2_3, "1/2")


class TestRelativePhase:
    def test_identity(self, fibonacci):
        s = random_state(fibonacci, ("1",) * 4, "0", np.random.default_rng(10))
        assert relative_phase(s, s) == pytest.approx(1.0)

    def test_constructed_phase(self, fibonacci):
        s = random_state(fibonacci, ("1",) * 4, "0", np.random.default_rng(11))
        rotated = StateVector(fibonacci, s.leaves, s.total, 1j * s.amps)
        assert relative_phase(rotated, s) == pytest.approx(1j, abs=1e-12)

    def test_orthogonal_states(self, fibonacci):
        s1 = StateVector(fibonacci, ("1", "1", "1"), "1", [1.0, 0.0])
        s2 = StateVector(fibonacci, ("1", "1", "1"), "1", [0.0, 1.0])
        with pytest.raises(NotPhaseEquivalent):
            relative_phase(s1, s2)

    def test_nan_overlap_is_no_phase(self, fibonacci, monkeypatch):
        # a NaN overlap is no closer to 1 than an orthogonal one
        from anyonbraid import teleport

        s = StateVector(fibonacci, ("1", "1", "1"), "1", [1.0, 0.0])
        monkeypatch.setattr(teleport, "inner", lambda s1, s2: complex(math.nan, math.nan))
        with pytest.raises(NotPhaseEquivalent, match="differ beyond a global phase"):
            relative_phase(s, s)


class TestMeasurementBraid:
    def test_matches_direct_braid_oracle(self, protocol_models):
        rng = np.random.default_rng(12)
        for model, a in protocol_models:
            for t in range(10):
                state = random_quad_state(model, a, rng)
                out, record = measurement_braid(state, (0, 1, 2, 3), "positive",
                                                np.random.default_rng([13, t]))
                assert record.oracle_fidelity >= 1 - 1e-9
                direct = direct_quad_braid(state, (0, 1, 2, 3), +1)
                assert fidelity(out, direct) >= 1 - 1e-9
                dist = pair_charge_distribution(out, 1, 2)
                assert dist[model.vacuum] == pytest.approx(1.0, abs=1e-10)

    def test_positive_then_inverse_is_identity(self, protocol_models):
        rng = np.random.default_rng(14)
        for model, a in protocol_models:
            state = random_quad_state(model, a, rng)
            r = np.random.default_rng(15)
            mid, _ = measurement_braid(state, (0, 1, 2, 3), "positive", r)
            back, _ = measurement_braid(mid, (0, 1, 2, 3), "inverse", r)
            assert fidelity(back, state) >= 1 - 1e-9

    def test_phase_depends_only_on_outcomes(self, protocol_models):
        rng = np.random.default_rng(16)
        for model, a in protocol_models:
            s1 = random_quad_state(model, a, rng)
            s2 = random_quad_state(model, a, rng)
            _, r1 = measurement_braid(s1, (0, 1, 2, 3), "positive",
                                      np.random.default_rng(17))
            _, r2 = measurement_braid(s2, (0, 1, 2, 3), "positive",
                                      np.random.default_rng(17))
            assert all(a_.outcomes == b_.outcomes for a_, b_ in zip(r1.steps, r2.steps))
            assert abs(r1.extracted_phase - r2.extracted_phase) < 1e-9

    def test_phase_additivity(self, protocol_models, su2_2):
        from conftest import quad_config
        from anyonbraid import load_builtin

        su2_4 = load_builtin("su2_k", k=4)
        for model, a in [*protocol_models, (su2_2, "1/2"), (su2_4, "1/2")]:
            for t in range(8):
                # quad layout: computational on 0 and 3, resource on (1, 2)
                state = quad_config(model, a)
                out, record = measurement_braid(state, (0, 1, 2, 3), "positive",
                                                np.random.default_rng([18, t]))
                total = record.extracted_phase
                assert total == pytest.approx(np.prod(record.step_phases), abs=1e-9)

    def test_under_routing_does_not_braid(self, ising):
        # on a register with genuine entanglement beyond the quad, the
        # under convention fails to reproduce the exchange
        from conftest import quad_config

        shape = attach_pair(quad_config(ising, "1/2"), 4, "1/2")
        state = random_state(ising, shape.leaves, shape.total,
                             np.random.default_rng(19))
        state, _ = project_pair(state, 1, 2, 0)
        with pytest.raises(NotPhaseEquivalent):
            measurement_braid(state, (0, 1, 2, 3), "positive",
                              np.random.default_rng(20), routing="under")

    def test_resource_pair_required(self, ising):
        rng = np.random.default_rng(21)
        state = random_state(ising, ("1/2",) * 4, "0", rng)
        if pair_charge_distribution(state, 1, 2)[ising.vacuum] > 1 - 1e-9:
            pytest.skip("random state accidentally vacuum")
        with pytest.raises(ProtocolError):
            measurement_braid(state, (0, 1, 2, 3), "positive", rng)

    def test_quad_must_be_contiguous(self, ising):
        from conftest import quad_config

        state = quad_config(ising, "1/2")
        with pytest.raises(ProtocolError):
            measurement_braid(state, (0, 1, 2, 4), "positive",
                              np.random.default_rng(22))
        with pytest.raises(ProtocolError):
            measurement_braid(state, (0, 1, 2, 3), "sideways",
                              np.random.default_rng(23))

    def test_oracle_state_convention(self, ising):
        # braid_oracle_state and the raw direct braid differ by the inverse
        # twist of the braided charge
        from conftest import quad_config

        state = quad_config(ising, "1/2")
        oracle = braid_oracle_state(state, (0, 1, 2, 3), "positive")
        direct = direct_quad_braid(state, (0, 1, 2, 3), +1)
        ratio = relative_phase(oracle, direct)
        assert ratio == pytest.approx(np.conj(ising.twist("1/2")), abs=1e-12)

    def test_non_self_dual_quad(self):
        # the protocol and its phase convention are not limited to
        # self-dual charges: a Z_3 quad (a, abar, a, a) braids exactly,
        # with single-attempt forced measurements (Abelian charges)
        from test_model_io import Z3_TEXT
        from anyonbraid import parse_model_text

        z3 = parse_model_text(Z3_TEXT)
        state = StateVector(z3, ("1", "2", "1", "1"), "2", [1.0])
        for direction in ("positive", "inverse"):
            _, record = measurement_braid(state, (0, 1, 2, 3), direction,
                                          np.random.default_rng(1))
            assert record.oracle_fidelity >= 1 - 1e-9
            assert record.attempts == (1, 1, 1)
            assert record.extracted_phase == pytest.approx(
                np.prod(record.step_phases), abs=1e-12)

    @given(model_index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
           word=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5))
    def test_oracle_checks_match_the_public_oracle(self, protocol_models, su2_2,
                                                   model_index, seed, word):
        # the braid's own oracle comparison is relative_phase and fidelity
        # of its output against braid_oracle_state of its input, bit for bit
        model, a = [*protocol_models, (su2_2, "1/2")][model_index]
        layout = array_layout(model, a, 3)
        state = random_encoded_state(layout, np.random.default_rng([seed, 1]))
        rng = np.random.default_rng(seed)
        for g in word:
            quad, direction = layout.quad(abs(g)), "positive" if g > 0 else "inverse"
            out, record = measurement_braid(state, quad, direction, rng)
            oracle = braid_oracle_state(state, quad, direction)
            assert record.extracted_phase == relative_phase(out, oracle)
            assert record.oracle_fidelity == fidelity(out, oracle)
            state = out

    @given(model_index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
           word=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5))
    def test_step_phases_match_teleport_reference(self, protocol_models, su2_2,
                                                  model_index, seed, word):
        # each step phase is taken against the reference built from the
        # step's first attempt; it must equal the phase against the
        # stand-alone teleport_reference oracle bit for bit, on the states
        # a replay of the same forced measurements passes through
        model, a = [*protocol_models, (su2_2, "1/2")][model_index]
        layout = array_layout(model, a, 3)
        state = random_encoded_state(layout, np.random.default_rng([seed, 1]))
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in word:
            quad, direction = layout.quad(abs(g)), "positive" if g > 0 else "inverse"
            out, record = measurement_braid(state, quad, direction, rng)
            for (target, recovery), phase, step in zip(
                    _quad_steps(quad, direction), record.step_phases, record.steps):
                after, replayed = forced_measurement(state, target, recovery, replay)
                assert replayed == step
                assert phase == relative_phase(after, teleport_reference(state, target))
                state = after
            assert np.array_equal(state.amps, out.amps)
