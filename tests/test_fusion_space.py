"""Fusion-chain bases, state vectors, pair projectors, braids, serialization."""

import io
import itertools
import math

import numpy as np
import pytest

from anyonbraid import (BasisMismatch, BraidWord, InvalidPosition, ProtocolError,
                        StateVector, attach_pair, braid_oracle_state, build_array,
                        check_resources, compile_word, direct_braid_reference,
                        empty_state, entangled_pair_state, execute,
                        forced_measurements, inner, load_builtin, measurement_braid,
                        pair_charge_distribution, random_encoded_state, random_state)
from anyonbraid.cli import _write_json
from anyonbraid.fusion_space import _basis, _frozen, _gather, _projector_table
from anyonbraid.streams import TrialStreams

from conftest import braid, teleport_config
from state_oracle import state_from_json, state_to_json

PHI = (1 + math.sqrt(5)) / 2


def brute_force_chain_count(model, leaves, total):
    """Independent oracle: enumerate all internal label combinations and
    filter by the fusion rules directly."""
    leaves = [model.charge(l).index for l in leaves]
    total = model.charge(total).index
    n = len(leaves)
    if n == 0:
        return 1 if total == 0 else 0
    if n == 1:
        return 1 if leaves[0] == total else 0
    count = 0
    for internals in itertools.product(range(model.num_charges), repeat=n - 2):
        chain = [leaves[0], *internals, total]
        if all(model.N[chain[j - 1], leaves[j], chain[j]] for j in range(1, n)):
            count += 1
    return count


def chain_matrix(model, leaves, total):
    """Chain-label matrix of the standard basis, leaves and total by label."""
    return _basis(model, tuple(model.charge(l).index for l in leaves),
                  model.charge(total).index)


class TestStandardBasis:
    def test_fibonacci_three_tau(self, fibonacci):
        chains = chain_matrix(fibonacci, ("1", "1", "1"), "1")
        assert chains.tolist() == [[1, 0, 1], [1, 1, 1]]

    def test_ising_sigma_pair(self, ising):
        assert len(chain_matrix(ising, ("1/2", "1/2"), "0")) == 1

    def test_unreachable_total(self, fibonacci):
        assert len(chain_matrix(fibonacci, ("1",), "0")) == 0

    @pytest.mark.parametrize("n_leaves", [2, 3, 4, 5, 6])
    def test_counts_match_brute_force(self, protocol_models, n_leaves):
        rng = np.random.default_rng(17)
        for model, a in protocol_models:
            labels = [c.label for c in model.charges]
            for _ in range(4):
                leaves = tuple(rng.choice(labels) for _ in range(n_leaves))
                total = rng.choice(labels)
                chains = chain_matrix(model, leaves, total)
                assert len(chains) == brute_force_chain_count(model, leaves, total)

    def test_canonical_order_is_lexicographic(self, fibonacci):
        internals = chain_matrix(fibonacci, ("1",) * 6, "0")[:, 1:-1].tolist()
        assert internals == sorted(internals)


class TestElementaryStates:
    def test_entangled_pair(self, protocol_models):
        for model, a in protocol_models:
            pair = entangled_pair_state(model, a)
            assert pair.dim == 1
            assert pair.amps[0] == pytest.approx(1.0)
            dist = pair_charge_distribution(pair, 0, 1)
            assert dist[model.vacuum] == pytest.approx(1.0)

    def test_normalization_enforced(self, fibonacci):
        with pytest.raises(ValueError):
            StateVector(fibonacci, ("1", "1"), "0", [2.0])


class TestAttachPair:
    def test_four_leaf_pair_distributions(self, fibonacci):
        four = attach_pair(entangled_pair_state(fibonacci, "1"), 2, "1")
        assert pair_charge_distribution(four, 0, 1)[fibonacci.vacuum] == pytest.approx(1.0)
        dist = pair_charge_distribution(four, 1, 2)
        assert dist[fibonacci.charge("0")] == pytest.approx(PHI ** -2)
        assert dist[fibonacci.charge("1")] == pytest.approx(PHI ** -1)

    def test_attach_to_empty_register(self, fibonacci):
        built = attach_pair(empty_state(fibonacci), 0, "1")
        pair = entangled_pair_state(fibonacci, "1")
        assert built.leaves == pair.leaves
        assert np.allclose(built.amps, pair.amps)

    def test_norm_preserved_everywhere(self, protocol_models):
        rng = np.random.default_rng(3)
        for model, a in protocol_models:
            state = random_state(model, (a, a, a, a), "0", rng)
            for pos in range(state.num_leaves + 1):
                grown = attach_pair(state, pos, a)
                assert np.linalg.norm(grown.amps) == pytest.approx(1.0, abs=1e-12)

    def test_inserted_pair_is_vacuum(self, ising):
        rng = np.random.default_rng(4)
        state = random_state(ising, ("1/2",) * 4, "0", rng)
        grown = attach_pair(state, 2, "1/2")
        assert pair_charge_distribution(grown, 2, 3)[ising.vacuum] == pytest.approx(1.0)

    def test_position_out_of_range(self, fibonacci):
        with pytest.raises(InvalidPosition):
            attach_pair(entangled_pair_state(fibonacci, "1"), 3, "1")

    def test_attach_does_not_disturb_remote_pairs(self, protocol_models):
        # pair-charge distributions entirely left or right of the insertion
        # point are unchanged by attaching a vacuum pair
        rng = np.random.default_rng(13)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 5, a, rng)
            before_left = pair_charge_distribution(state, 0, 1)
            before_right = pair_charge_distribution(state, 3, 4)
            grown = attach_pair(state, 2, a)
            after_left = pair_charge_distribution(grown, 0, 1)
            after_right = pair_charge_distribution(grown, 5, 6)
            for c, p in before_left.items():
                assert after_left[c] == pytest.approx(p, abs=1e-10)
            for c, p in before_right.items():
                assert after_right[c] == pytest.approx(p, abs=1e-10)


def projections(state, pos):
    """Projections of ``state`` onto each channel of pair ``(pos, pos+1)``,
    ``F^-1 delta_c F`` with the F-move resolving the pair, and the channels."""
    present, *table = _projector_table(state.model, state.leaves, state.total, pos)
    return present.tolist(), _gather(table, state.amps)


class TestApplyFMove:
    """The F-move resolving a pair, seen through the channel projectors
    built from it."""

    def test_fibonacci_row_example(self, fibonacci):
        # F resolves row y_1 = 0 into channels 0 and 1 with amplitudes
        # 1/phi and phi^-1/2; F^-1 takes each back to the rows (1/phi,
        # phi^-1/2) and (phi^-1/2, -1/phi).
        state = StateVector(fibonacci, ("1", "1", "1"), "1", [1.0, 0.0])
        present, (vacuum, tau) = projections(state, 1)
        assert present == [0, 1]
        assert np.allclose(vacuum, [PHI ** -2, PHI ** -1.5], atol=1e-12)
        assert np.allclose(tau, [PHI ** -1, -PHI ** -1.5], atol=1e-12)

    def test_roundtrip_identity(self, protocol_models):
        rng = np.random.default_rng(5)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 5, a, rng)
            for pos in range(4):
                _, parts = projections(state, pos)
                assert np.allclose(parts.sum(0), state.amps, atol=1e-12)

    def test_single_channel_is_trivial(self, ising):
        # leaves (psi, sigma, sigma), total psi: the pair (sigma, sigma) can
        # only be in the vacuum, a 1x1 F element
        state = StateVector(ising, ("1", "1/2", "1/2"), "1", [1.0])
        present, parts = projections(state, 1)
        assert present == [ising.vacuum.index]
        assert abs(parts[0, 0]) == pytest.approx(1.0)

    def test_unitary_norm_drift(self, protocol_models):
        rng = np.random.default_rng(6)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 6, "0", rng)
            _, parts = projections(state, 2)
            assert abs(np.sum(np.abs(parts) ** 2) - 1.0) < 1e-12


class TestApplyBraid:
    def test_braid_inverse_identity(self, protocol_models):
        rng = np.random.default_rng(7)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 4, "0", rng)
            for pos in range(3):
                back = braid(braid(state, pos, +1), pos, -1)
                assert np.allclose(back.amps, state.amps, atol=1e-12)

    def test_ising_pair_phase_and_distribution(self, ising):
        pair = entangled_pair_state(ising, "1/2")
        braided = braid(pair, 0, +1)
        assert braided.amps[0] == pytest.approx(ising.R[1, 1, 0])
        dist = pair_charge_distribution(braided, 0, 1)
        assert dist[ising.vacuum] == pytest.approx(1.0)

    def test_yang_baxter_three_strands(self, protocol_models, su2_2):
        rng = np.random.default_rng(8)
        for model, a in [*protocol_models, (su2_2, "1/2")]:
            for total in model.fuse(a, model.fuse(a, a)[0]):
                state = random_state(model, (a, a, a), total, rng)
                lhs = braid(braid(braid(state, 0, +1), 1, +1), 0, +1)
                rhs = braid(braid(braid(state, 1, +1), 0, +1), 1, +1)
                assert np.max(np.abs(lhs.amps - rhs.amps)) < 1e-10

    def test_norm_drift(self, fibonacci):
        rng = np.random.default_rng(9)
        state = random_state(fibonacci, ("1",) * 7, "1", rng)
        for pos in range(6):
            state = braid(state, pos, +1)
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12

    def test_invalid_position(self, fibonacci):
        # braids reach a register through quads, which must lie inside it
        state = attach_pair(entangled_pair_state(fibonacci, "1"), 1, "1")
        for quad in ((1, 2, 3, 4), (-1, 0, 1, 2)):
            with pytest.raises(ProtocolError, match="out of range"):
                braid_oracle_state(state, quad, "positive")
            with pytest.raises(ProtocolError, match="out of range"):
                measurement_braid(state, quad, "positive", np.random.default_rng(1))


def mutable_parts(value):
    """The writable arrays and the lists in ``value``, at any depth."""
    if isinstance(value, np.ndarray):
        return [value] if value.flags.writeable else []
    if isinstance(value, list):
        return [value]
    if isinstance(value, tuple):
        return [part for item in value for part in mutable_parts(item)]
    return []


class TestOperatorCache:
    def test_holds_no_mutable_entry(self):
        # a fresh model, whose cache holds only what the paths below build:
        # s1 braids at position 0, so the oracle builds position-0 tables
        model = load_builtin("ising")
        layout, state = build_array(model, "1/2", 3)
        word = BraidWord.parse("s1 s2'")
        final, _ = execute(compile_word(word, layout), state, np.random.default_rng(1))
        check_resources(layout, final)
        direct_braid_reference(word, layout, state)
        random_encoded_state(layout, np.random.default_rng(2))
        list(forced_measurements(teleport_config(model, "1/2"), (1, 2), (0, 1),
                                 TrialStreams(3, range(4))))
        assert len(model._cache) > 20
        # every kind of entry the cache stores is among them
        assert {key[0].__name__ for key in model._cache} == {
            "_ranks", "_basis", "_braid_table", "_projector_table", "_pair_op"}
        assert [repr(key) for key, value in model._cache.items() if mutable_parts(value)] == []

    def test_frozen_reaches_arrays_at_any_depth(self):
        # a braid table's labels and a transport's tuples hold arrays
        # beside plain labels, at more than one depth
        inner, deep = np.zeros(2), np.ones(1)
        value = (0, (inner, (3, deep), ()), "x")
        assert _frozen(value) is value
        assert mutable_parts(value) == []


class TestInner:
    def test_self_overlap(self, fibonacci):
        rng = np.random.default_rng(10)
        state = random_state(fibonacci, ("1",) * 4, "0", rng)
        assert inner(state, state) == pytest.approx(1.0)

    def test_orthogonal_trees(self, fibonacci):
        s1 = StateVector(fibonacci, ("1", "1", "1"), "1", [1.0, 0.0])
        s2 = StateVector(fibonacci, ("1", "1", "1"), "1", [0.0, 1.0])
        assert inner(s1, s2) == 0.0

    def test_projection_overlap_is_born_probability(self, fibonacci):
        from anyonbraid import project_pair

        rng = np.random.default_rng(11)
        state = random_state(fibonacci, ("1",) * 4, "0", rng)
        dist = pair_charge_distribution(state, 1, 2)
        for charge, prob in dist.items():
            if prob < 1e-9:
                continue
            post, p = project_pair(state, 1, 2, charge)
            assert p == pytest.approx(prob, abs=1e-12)
            assert abs(inner(state, post)) ** 2 == pytest.approx(prob, abs=1e-10)

    def test_basis_mismatch(self, fibonacci, ising):
        s1 = entangled_pair_state(fibonacci, "1")
        s2 = entangled_pair_state(fibonacci, "0")
        with pytest.raises(BasisMismatch):
            inner(s1, s2)
        with pytest.raises(BasisMismatch):
            inner(s1, entangled_pair_state(ising, "1/2"))


class TestSerialization:
    """The reference dump of :mod:`state_oracle` and the rows ``run`` writes
    straight from the arrays, each read back bit for bit."""

    @staticmethod
    def _dumps(state):
        out = io.StringIO()
        _write_json(state, out)
        return state_to_json(state), out.getvalue()

    def test_bit_exact_roundtrip(self, protocol_models):
        rng = np.random.default_rng(12)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 5, a, rng)
            reference, written = self._dumps(state)
            assert written == reference + "\n"
            again = state_from_json(model, written)
            assert again.leaves == state.leaves
            assert again.total == state.total
            assert np.array_equal(again.amps, state.amps)

    def test_labels_in_dump(self, ising):
        for text in self._dumps(entangled_pair_state(ising, "1/2")):
            assert '"1/2"' in text

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_short_chains(self, fibonacci, n):
        """Registers of at most two leaves have no internal labels."""
        leaves = ("1",) * n
        total = "1" if n % 2 else "0"
        if n == 0:
            state = empty_state(fibonacci)
        else:
            state = random_state(fibonacci, leaves, total, np.random.default_rng(n))
        reference, written = self._dumps(state)
        assert written == reference + "\n"
        assert np.array_equal(state_from_json(fibonacci, written).amps, state.amps)
