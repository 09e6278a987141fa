"""Projective pair measurements: Born rule, collapse, sampling, routing."""

import math

import numpy as np
import pytest

from anyonbraid import (InvalidPosition, ZeroProbabilityOutcome,
                        entangled_pair_state, fidelity, pair_charge_distribution,
                        project_pair, random_state)

from conftest import sample_pair, teleport_config
from dense_oracle import _braid_matrix, transport_matrix

PHI = (1 + math.sqrt(5)) / 2


class TestPairChargeDistribution:
    def test_definite_pair(self, protocol_models):
        for model, a in protocol_models:
            pair = entangled_pair_state(model, a)
            assert pair_charge_distribution(pair, 0, 1) == {model.vacuum: 1.0}

    def test_fibonacci_teleport_configuration(self, fibonacci):
        state = teleport_config(fibonacci, "1")
        dist = pair_charge_distribution(state, 1, 2)
        assert dist[fibonacci.charge("0")] == pytest.approx(PHI ** -2)
        assert dist[fibonacci.charge("1")] == pytest.approx(PHI ** -1)

    def test_ising_teleport_configuration(self, ising):
        state = teleport_config(ising, "1/2")
        dist = pair_charge_distribution(state, 1, 2)
        # d_e / d_a^2 with d_0 = d_1 = 1 and d_{1/2} = sqrt(2)
        assert dist[ising.charge("0")] == pytest.approx(0.5)
        assert dist[ising.charge("1")] == pytest.approx(0.5)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2), (1, 4), (0, 4)])
    @pytest.mark.parametrize("routing", ["over", "under"])
    def test_completeness(self, protocol_models, pair, routing):
        rng = np.random.default_rng(21)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 5, a, rng)
            dist = pair_charge_distribution(state, *pair, routing=routing)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_pair(self, fibonacci):
        pair = entangled_pair_state(fibonacci, "1")
        with pytest.raises(InvalidPosition):
            pair_charge_distribution(pair, 0, 2)
        with pytest.raises(InvalidPosition):
            pair_charge_distribution(pair, 1, 1)


class TestProjectPair:
    def test_eigenstate_unchanged(self, protocol_models):
        for model, a in protocol_models:
            pair = entangled_pair_state(model, a)
            post, prob = project_pair(pair, 0, 1, "0")
            assert prob == pytest.approx(1.0)
            assert np.allclose(post.amps, pair.amps, atol=1e-12)

    def test_impossible_outcome(self, ising):
        pair = entangled_pair_state(ising, "1/2")
        with pytest.raises(ZeroProbabilityOutcome):
            project_pair(pair, 0, 1, "1")

    def test_idempotent_and_orthogonal(self, fibonacci):
        rng = np.random.default_rng(22)
        state = random_state(fibonacci, ("1",) * 4, "0", rng)
        post, _ = project_pair(state, 1, 2, "1")
        again, prob = project_pair(post, 1, 2, "1")
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(again.amps, post.amps, atol=1e-10)
        with pytest.raises(ZeroProbabilityOutcome):
            project_pair(post, 1, 2, "0")

    def test_teleport_projection(self, fibonacci):
        state = teleport_config(fibonacci, "1")
        post, prob = project_pair(state, 1, 2, "0")
        assert prob == pytest.approx(PHI ** -2)
        assert pair_charge_distribution(post, 1, 2)[fibonacci.vacuum] == pytest.approx(1.0)

    def test_commutation_on_disjoint_pairs(self, protocol_models):
        # non-crossing routed pairs: (0, 2) transports within leaves 1..2,
        # (3, 5) within 4..5
        rng = np.random.default_rng(23)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 6, "0", rng)
            base = pair_charge_distribution(state, 0, 2)
            charges = [c for c, p in
                       pair_charge_distribution(state, 3, 5).items() if p > 1e-6]
            # conditional distributions need not match the marginal, but
            # their probability-weighted mixture must
            mixture = {c: 0.0 for c in base}
            for c in charges:
                collapsed, p_c = project_pair(state, 3, 5, c)
                for charge, p in pair_charge_distribution(collapsed, 0, 2).items():
                    mixture[charge] += p_c * p
            for charge, p in base.items():
                assert mixture[charge] == pytest.approx(p, abs=1e-10)

    def test_order_independence_of_disjoint_projections(self, ising):
        rng = np.random.default_rng(24)
        state = random_state(ising, ("1/2",) * 6, "0", rng)
        try:
            ab, _ = project_pair(state, 0, 2, "0")
            ab, _ = project_pair(ab, 3, 5, "1")
            ba, _ = project_pair(state, 3, 5, "1")
            ba, _ = project_pair(ba, 0, 2, "0")
        except ZeroProbabilityOutcome:
            pytest.skip("random state lacks weight in the chosen sector")
        assert fidelity(ab, ba) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(ab.amps, ba.amps, atol=1e-9)


class TestMatrixOracle:
    """project_pair against an independently constructed projector matrix.

    The monodromy of a pair (double exchange) is diagonal in the pair
    channel with eigenvalue R_c^{ba} R_c^{ab}; Lagrange interpolation in the
    monodromy matrix therefore rebuilds each channel projector without any
    F-move resolution.
    """

    @staticmethod
    def _projector_via_monodromy(model, state, i, j, charge, routing="over"):
        leaves, total = state.leaves, state.total
        if j == i + 1:
            cur, T = leaves, np.eye(state.dim, dtype=complex)
        else:
            cur, T = transport_matrix(model, leaves, total, i, j, routing)
        a, b = cur[i], cur[i + 1]
        swapped, B1 = _braid_matrix(model, cur, total, i, +1)
        _, B2 = _braid_matrix(model, swapped, total, i, +1)
        monodromy = B2 @ B1
        channels = [c.index for c in model.fuse(model.charges[a], model.charges[b])]
        eigs = {c: model.R[b, a, c] * model.R[a, b, c] for c in channels}
        values = {c: eigs[c] for c in channels}
        if len(set(np.round(list(values.values()), 9))) != len(values):
            return None  # degenerate monodromy: oracle not applicable
        want = model.charge(charge).index
        P = np.eye(len(monodromy), dtype=complex)
        for c in channels:
            if c == want:
                continue
            P = P @ (monodromy - eigs[c] * np.eye(len(monodromy))) / (eigs[want] - eigs[c])
        return T.conj().T @ P @ T

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)])
    def test_agrees_with_projection(self, protocol_models, pair):
        rng = np.random.default_rng(25)
        for model, a in protocol_models:
            state = random_state(model, (a,) * 4, "0", rng)
            dist = pair_charge_distribution(state, *pair)
            for charge, prob in dist.items():
                P = self._projector_via_monodromy(model, state, pair[0], pair[1], charge)
                if P is None:
                    continue
                projected = P @ state.amps
                assert np.linalg.norm(projected) ** 2 == pytest.approx(prob, abs=1e-10)
                if prob > 1e-6:
                    post, p = project_pair(state, pair[0], pair[1], charge)
                    assert p == pytest.approx(prob, abs=1e-10)
                    assert np.max(np.abs(post.amps * math.sqrt(p) - projected)) < 1e-10


class TestSampling:
    def test_definite_channel_always_sampled(self, ising):
        pair = entangled_pair_state(ising, "1/2")
        rng = np.random.default_rng(26)
        for _ in range(32):
            charge, probability, post = sample_pair(pair, 0, 1, rng)
            assert charge == ising.vacuum
            assert probability == pytest.approx(1.0)

    def test_frequencies_within_3_sigma(self, fibonacci):
        state = teleport_config(fibonacci, "1")
        rng = np.random.default_rng(27)
        n = 10_000
        hits = sum(sample_pair(state, 1, 2, rng)[0].index == 0
                   for _ in range(n))
        p = PHI ** -2
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma

    def test_same_seed_same_trajectory(self, fibonacci):
        state = teleport_config(fibonacci, "1")

        def run(seed):
            rng = np.random.default_rng(seed)
            s, seq = state, []
            for _ in range(8):
                *out, s = sample_pair(s, 1, 2, rng)
                seq.append(out)
                *out, s = sample_pair(s, 0, 1, rng)
                seq.append(out)
            return seq, s

        seq1, s1 = run(4242)
        seq2, s2 = run(4242)
        assert seq1 == seq2
        assert np.array_equal(s1.amps, s2.amps)
