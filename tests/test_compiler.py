"""Array layout, braid-word compilation, schedule execution, oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid import (BraidWord, ProtocolError, RegisterTooLarge, Schedule,
                        ScheduleError, StateVector, UnsupportedCharge, attach_pair,
                        build_array, check_resources, compile_word,
                        direct_braid_reference, empty_state, execute, fidelity,
                        load_builtin, pair_charge_distribution, project_pair,
                        random_encoded_state, random_state, relative_phase,
                        schedule_from_dict)
from anyonbraid.compiler import RESOURCE_TOL, array_layout
from anyonbraid.model_io import parse_model_text

from conftest import sample_pair

from test_model_io import Z3_TEXT


def _attached_array(model, a, n_comp):
    """The array state of ``n_comp`` anyons grown pair by pair: the created
    pairs attached at the right end, then the resource pairs inserted from
    the right, each at its gap."""
    charge = model.charge(a)
    state = empty_state(model)
    for _ in range((n_comp + 1) // 2):
        state = attach_pair(state, state.num_leaves, charge)
    for gap in range(n_comp - 1, 0, -1):
        state = attach_pair(state, gap, model.dual(charge))
    return state


_ARRAY_MODELS = [("fibonacci", None), ("ising", None)] + [("su2_k", k) for k in range(2, 7)]


class TestBuildArray:
    @settings(max_examples=120)
    @given(data=st.data())
    def test_one_pass_equals_pairs_attached_in_turn(self, data):
        name, k = data.draw(st.sampled_from(_ARRAY_MODELS), label="model")
        model = load_builtin(name, k=k)
        charge = data.draw(st.sampled_from(
            [c.label for c in model.charges if model.dual(c) == c]), label="charge")
        n_comp = data.draw(st.integers(2, 8), label="n_comp")
        try:
            _, state = build_array(model, charge, n_comp)
        except RegisterTooLarge:
            with pytest.raises(RegisterTooLarge):
                array_layout(model, charge, n_comp)
            return
        want = _attached_array(model, charge, n_comp)
        assert state.leaves == want.leaves and state.total == want.total
        assert state.chains.tobytes() == want.chains.tobytes()
        assert state.amps.tobytes() == want.amps.tobytes()

    def test_caches_the_final_register_only(self):
        model = load_builtin("ising")  # a fresh operator cache
        _, state = build_array(model, "1/2", 7)
        assert sorted((key[0].__name__, key[1:]) for key in model._cache) == [
            ("_basis", (state.leaves, state.total)), ("_ranks", (state.leaves, state.total))]

    def test_ising_four_computational(self, ising):
        layout, state = build_array(ising, "1/2", 4)
        assert layout.computational == (0, 3, 6, 9)
        assert layout.resources == ((1, 2), (4, 5), (7, 8))
        assert layout.boundary_partner is None
        assert state.num_leaves == 10
        assert state.total == 0
        assert check_resources(layout, state) < 1e-12
        for i in range(0, 4, 2):
            pair = (layout.computational[i], layout.computational[i + 1])
            dist = pair_charge_distribution(state, *pair)
            assert dist[ising.vacuum] == pytest.approx(1.0)

    def test_fibonacci_two_is_quad(self, fibonacci):
        layout, state = build_array(fibonacci, "1", 2)
        assert state.num_leaves == 4
        assert layout.quad(1) == (0, 1, 2, 3)

    def test_odd_count_gets_boundary_partner(self, ising):
        layout, state = build_array(ising, "1/2", 3)
        assert layout.computational == (0, 3, 6)
        assert layout.boundary_partner == 7
        assert state.num_leaves == 8
        assert state.total == 0

    def test_non_self_dual_charge_rejected(self):
        z3 = parse_model_text(Z3_TEXT)
        with pytest.raises(UnsupportedCharge):
            build_array(z3, "1", 2)

    def test_too_few_computational(self, ising):
        with pytest.raises(ProtocolError):
            build_array(ising, "1/2", 1)


class TestBraidWord:
    def test_parse_and_print(self):
        word = BraidWord.parse("s1 s2' s1")
        assert word.generators == (1, -2, 1)
        assert str(word) == "s1 s2' s1"
        assert word.max_strand() == 2

    def test_inverse(self):
        word = BraidWord.parse("s1 s2'")
        assert str(word.inverse()) == "s2 s1'"

    def test_bad_tokens(self):
        with pytest.raises(ScheduleError):
            BraidWord.parse("sigma1")
        with pytest.raises(ScheduleError):
            BraidWord.parse("s0")


class TestCompile:
    def test_single_generator_three_steps(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        schedule = compile_word(BraidWord.parse("s1"), layout)
        assert len(schedule.steps) == 3
        assert [s.pair for s in schedule.steps] == [(0, 1), (1, 3), (1, 2)]
        assert [s.recovery for s in schedule.steps] == [(1, 2), (0, 1), (1, 3)]
        assert all(s.direction == "positive" for s in schedule.steps)

    def test_inverse_generator_order(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        schedule = compile_word(BraidWord.parse("s1'"), layout)
        assert [s.pair for s in schedule.steps] == [(1, 3), (0, 1), (1, 2)]
        assert all(s.direction == "inverse" for s in schedule.steps)

    def test_opposite_directions(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        schedule = compile_word(BraidWord.parse("s1 s1'"), layout)
        assert len(schedule.steps) == 6
        assert {s.direction for s in schedule.steps[:3]} == {"positive"}
        assert {s.direction for s in schedule.steps[3:]} == {"inverse"}

    def test_two_quads(self, ising):
        layout, _ = build_array(ising, "1/2", 3)
        schedule = compile_word(BraidWord.parse("s1 s2 s1"), layout)
        assert len(schedule.steps) == 9
        assert schedule.steps[0].quad == (0, 1, 2, 3)
        assert schedule.steps[3].quad == (3, 4, 5, 6)

    def test_generator_out_of_range(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        with pytest.raises(ScheduleError):
            compile_word(BraidWord.parse("s2"), layout)

    def test_steps_follow_the_word(self, ising):
        # a schedule is its layout and word; the steps cannot disagree
        layout, _ = build_array(ising, "1/2", 3)
        schedule = Schedule(layout, BraidWord.parse("s2' s1"))
        assert [(s.braid_index, s.generator, s.direction) for s in schedule.steps] \
            == [(0, 2, "inverse")] * 3 + [(1, 1, "positive")] * 3
        assert schedule.steps[:3] == compile_word(BraidWord.parse("s2'"), layout).steps


class TestExecute:
    def test_empty_schedule(self, fibonacci):
        layout, state = build_array(fibonacci, "1", 2)
        final, records = execute(compile_word(BraidWord(()), layout), state,
                                 np.random.default_rng(0))
        assert records == []
        assert np.array_equal(final.amps, state.amps)

    def test_word_then_inverse_is_identity(self, protocol_models):
        for model, a in protocol_models:
            layout, _ = build_array(model, a, 3)
            state = random_encoded_state(layout, np.random.default_rng(30))
            word = BraidWord.parse("s1 s2'")
            rng = np.random.default_rng(31)
            mid, _ = execute(compile_word(word, layout), state, rng)
            back, _ = execute(compile_word(word.inverse(), layout), mid, rng)
            assert fidelity(back, state) >= 1 - 1e-9

    def test_yang_baxter_through_measurements(self, ising, fibonacci):
        for model, a in [(ising, "1/2"), (fibonacci, "1")]:
            layout, _ = build_array(model, a, 3)
            state = random_encoded_state(layout, np.random.default_rng(32))
            lhs, _ = execute(compile_word(BraidWord.parse("s1 s2 s1"), layout),
                             state, np.random.default_rng(33))
            rhs, _ = execute(compile_word(BraidWord.parse("s2 s1 s2"), layout),
                             state, np.random.default_rng(34))
            assert fidelity(lhs, rhs) >= 1 - 1e-9

    def test_far_commutation(self, ising):
        layout, _ = build_array(ising, "1/2", 4)
        state = random_encoded_state(layout, np.random.default_rng(35))
        lhs, _ = execute(compile_word(BraidWord.parse("s1 s3"), layout),
                         state, np.random.default_rng(36))
        rhs, _ = execute(compile_word(BraidWord.parse("s3 s1"), layout),
                         state, np.random.default_rng(37))
        assert fidelity(lhs, rhs) >= 1 - 1e-9

    def test_gate_equivalence_random_states(self, protocol_models):
        rng = np.random.default_rng(38)
        for model, a in protocol_models:
            layout, _ = build_array(model, a, 3)
            for g, t in [(1, 0), (2, 1), (-1, 2), (-2, 3)]:
                word = BraidWord((g,))
                state = random_encoded_state(layout, rng)
                final, records = execute(compile_word(word, layout), state,
                                         np.random.default_rng([39, t]))
                oracle = direct_braid_reference(word, layout, state)
                assert fidelity(final, oracle) >= 1 - 1e-9
                assert records[0].oracle_fidelity >= 1 - 1e-9

    def test_resources_replenished_after_every_step(self, fibonacci):
        layout, _ = build_array(fibonacci, "1", 3)
        state = random_encoded_state(layout, np.random.default_rng(40))
        word = BraidWord.parse("s1 s2 s1' s2'")
        rng = np.random.default_rng(41)
        schedule = compile_word(word, layout)
        # execute braid-by-braid to observe the invariant between steps
        for b in range(len(word.generators)):
            part = compile_word(BraidWord(word.generators[b:b + 1]), layout)
            state, _ = execute(part, state, rng)
            assert check_resources(layout, state) < 1e-10

    def test_records_per_generator(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        _, state = build_array(ising, "1/2", 2)
        final, records = execute(compile_word(BraidWord.parse("s1 s1"), layout),
                                 state, np.random.default_rng(42))
        assert len(records) == 2
        assert all(len(r.steps) == 3 for r in records)


class TestDirectBraidReference:
    def test_identity_word(self, fibonacci):
        layout, state = build_array(fibonacci, "1", 2)
        assert np.array_equal(
            direct_braid_reference(BraidWord(()), layout, state).amps, state.amps)

    def test_full_twist_phase_on_definite_channels(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        word = BraidWord.parse("s1 s1")
        for total, channel in (("0", "0"), ("1", "1")):
            # with the resource pair in vacuum, the outer pair channel is
            # locked to the register's total charge
            base = random_state(ising, ("1/2",) * 4, total, np.random.default_rng(44))
            state, _ = project_pair(base, 1, 2, 0)
            twisted = direct_braid_reference(word, layout, state)
            expected = ising.R[1, 1, ising.charge(channel).index] ** 2
            assert relative_phase(twisted, state) == pytest.approx(expected, abs=1e-10)

    def test_matrix_unitary_and_braid_relations(self, fibonacci):
        # independent dense-matrix construction: build each generator's
        # matrix column by column and check the braid-group relations
        layout, state = build_array(fibonacci, "1", 3)
        dim = state.dim

        def matrix(word):
            cols = []
            for n in range(dim):
                amps = np.zeros(dim, dtype=complex)
                amps[n] = 1.0
                basis_state = StateVector(fibonacci, state.leaves, state.total, amps)
                cols.append(direct_braid_reference(word, layout, basis_state).amps)
            return np.array(cols).T

        m1 = matrix(BraidWord.parse("s1"))
        m2 = matrix(BraidWord.parse("s2"))
        for m in (m1, m2):
            assert np.allclose(m @ m.conj().T, np.eye(dim), atol=1e-10)
        assert np.allclose(m1 @ m2 @ m1, m2 @ m1 @ m2, atol=1e-10)
        # generators execute left to right, so the word matrix composes
        # right to left
        assert np.allclose(matrix(BraidWord.parse("s1 s2")), m2 @ m1, atol=1e-10)

    def test_oracle_vs_execute_on_words(self, ising):
        layout, _ = build_array(ising, "1/2", 4)
        rng = np.random.default_rng(45)
        for t, text in enumerate(["s1 s2 s3", "s2' s1 s3'", "s1 s1 s2' s3 s2"]):
            word = BraidWord.parse(text)
            state = random_encoded_state(layout, rng)
            final, _ = execute(compile_word(word, layout), state,
                               np.random.default_rng([46, t]))
            assert fidelity(final, direct_braid_reference(word, layout, state)) >= 1 - 1e-9

    @settings(max_examples=100)
    @given(st.integers(0, 2), st.integers(3, 4), st.data())
    def test_random_words_match_oracle(self, protocol_models, model_index, n_comp, data):
        model, a = protocol_models[model_index]
        layout, _ = build_array(model, a, n_comp)
        strands = [g for i in range(1, n_comp) for g in (i, -i)]
        word = BraidWord(tuple(data.draw(st.lists(st.sampled_from(strands), max_size=8))))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        state = random_encoded_state(layout, np.random.default_rng([47, seed]))
        final, records = execute(compile_word(word, layout), state,
                                 np.random.default_rng([48, seed]))
        assert len(records) == len(word.generators)
        assert fidelity(final, direct_braid_reference(word, layout, state)) >= 1 - 1e-9
        assert check_resources(layout, final) < RESOURCE_TOL


class TestReadout:
    def test_fresh_resource_pair(self, ising):
        layout, state = build_array(ising, "1/2", 2)
        charge, probability, _ = sample_pair(state, *layout.resources[0],
                                             np.random.default_rng(47))
        assert charge == ising.vacuum
        assert probability == pytest.approx(1.0)

    def test_full_twist_leaves_distribution(self, ising):
        layout, state = build_array(ising, "1/2", 2)
        final, _ = execute(compile_word(BraidWord.parse("s1 s1"), layout),
                           state, np.random.default_rng(48))
        pair = (layout.computational[0], layout.computational[1])
        charge, probability, _ = sample_pair(final, *pair, np.random.default_rng(49))
        assert charge == ising.vacuum
        assert probability == pytest.approx(1.0, abs=1e-9)

    def test_statistics_match_oracle_distribution(self, fibonacci):
        layout, _ = build_array(fibonacci, "1", 3)
        state = random_encoded_state(layout, np.random.default_rng(50))
        word = BraidWord.parse("s1")
        schedule = compile_word(word, layout)
        oracle = direct_braid_reference(word, layout, state)
        pair = (layout.computational[0], layout.computational[1])
        want = pair_charge_distribution(oracle, *pair)
        n = 10_000
        counts = {c: 0 for c in want}
        for t in range(n):
            final, _ = execute(schedule, state, np.random.default_rng([51, t, 0]))
            charge, _, _ = sample_pair(final, *pair, np.random.default_rng([51, t, 1]))
            counts[charge] += 1
        for charge, p in want.items():
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[charge] / n - p) <= 3 * sigma + 1e-9


class TestScheduleSerialization:
    def test_roundtrip(self, ising):
        layout, _ = build_array(ising, "1/2", 3)
        schedule = compile_word(BraidWord.parse("s1 s2'"), layout)
        data = json.loads(json.dumps(schedule.to_dict()))
        again = schedule_from_dict(data)
        assert again.steps == schedule.steps
        assert str(again.word) == str(schedule.word)

    def test_tampered_steps_rejected(self, ising):
        layout, _ = build_array(ising, "1/2", 2)
        data = compile_word(BraidWord.parse("s1"), layout).to_dict()
        data["steps"][0]["pair"] = [1, 2]
        with pytest.raises(ScheduleError):
            schedule_from_dict(data)
        data = compile_word(BraidWord.parse("s1"), layout).to_dict()
        data["steps"].append({"kind": "readout", "pair": list(layout.resources[0])})
        with pytest.raises(ScheduleError):
            schedule_from_dict(data)

    def test_empty_word_with_braid_steps_rejected(self, fibonacci):
        layout, _ = build_array(fibonacci, "1", 3)
        data = compile_word(BraidWord.parse("s2"), layout).to_dict()
        data["word"] = ""
        with pytest.raises(ScheduleError):
            schedule_from_dict(data)
        data["steps"] = []
        assert schedule_from_dict(data).word == BraidWord(())

    def test_unknown_format_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_dict({"format": "v999"})
