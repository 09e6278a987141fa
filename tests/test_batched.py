"""Lockstep batched forced measurement against its batch of one."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid import (MaxAttemptsExceeded, build_array, forced_measurement,
                        forced_measurements, random_encoded_state)
from anyonbraid.cli import main
from anyonbraid.streams import TrialStreams
from anyonbraid.teleport import BLOCK_TRIALS, _quad_steps

from conftest import random_five_leaf_state, teleport_config

DATA = pathlib.Path(__file__).parent / "data"
TARGET, RECOVERY = (1, 2), (0, 1)


def blocks_as_trials(blocks):
    """Per-trial ``(record or None, final state)`` of a batched run."""
    out = []
    for block in blocks:
        ok = block.succeeded
        for t in range(block.outcomes.shape[1]):
            out.append((block.record(t) if ok[t] else None, block.final_state(t)))
    return out


def assert_matches_batch_of_one(state, streams, max_attempts=1000,
                                pairs=(TARGET, RECOVERY)):
    """Run the trials of ``streams`` (a :class:`TrialStreams`) batched, and
    check each against its block of one, ``TrialStreams(seed, [t])``, and
    its forced measurement alone on its own ``default_rng([seed, t])``.

    Alone, a trial is a block of one, run as a ``(dim,)`` vector.  It
    equals its column of the batch bit for bit: every outcome, every
    probability and the final amplitudes."""
    blocks = list(forced_measurements(state, *pairs, streams,
                                      max_attempts=max_attempts))
    batched = blocks_as_trials(blocks)
    assert len(batched) == len(streams)
    columns = [(block, t) for block in blocks for t in range(block.outcomes.shape[1])]
    for t, (record, final), (block, col) in zip(streams.trials, batched, columns):
        single, = forced_measurements(state, *pairs,
                                      TrialStreams(streams.seed, [t]),
                                      max_attempts=max_attempts)
        rounds = len(single.outcomes)
        assert single.amps.shape == (state.dim, 1)
        assert np.array_equal(single.outcomes[:, 0], block.outcomes[:rounds, col])
        assert (block.outcomes[rounds:, col] == -1).all()
        assert np.array_equal(single.probabilities[:, 0],
                              block.probabilities[:rounds, col])
        assert np.array_equal(single.amps[:, 0], final.amps)
        rng = np.random.default_rng([streams.seed, t])
        if record is None:
            assert not single.succeeded[0]
            with pytest.raises(MaxAttemptsExceeded):
                forced_measurement(state, *pairs, rng, max_attempts=max_attempts)
            continue
        single_state, single_record = forced_measurement(state, *pairs, rng,
                                                         max_attempts=max_attempts)
        assert single_record == record
        assert np.array_equal(single_state.amps, final.amps)
    return batched


class TestBatchOfOne:
    def test_every_protocol_model(self, protocol_models):
        for model, a in protocol_models:
            assert_matches_batch_of_one(teleport_config(model, a),
                                        TrialStreams(21, range(300)))

    def test_random_encoded_states(self, protocol_models):
        rng = np.random.default_rng(22)
        for model, a in protocol_models:
            assert_matches_batch_of_one(random_five_leaf_state(model, a, rng),
                                        TrialStreams(23, range(2 ** 32 - 30, 2 ** 32 + 30)))

    @pytest.mark.parametrize("trials", [1, BLOCK_TRIALS, BLOCK_TRIALS + 1])
    def test_block_boundaries(self, fibonacci, trials):
        state = teleport_config(fibonacci, "1")
        assert_matches_batch_of_one(state, TrialStreams(24, range(trials)))
        want = [BLOCK_TRIALS] * (trials // BLOCK_TRIALS) + (
            [trials % BLOCK_TRIALS] if trials % BLOCK_TRIALS else [])
        sizes = [block.outcomes.shape[1] for block in forced_measurements(
            state, TARGET, RECOVERY, TrialStreams(24, range(trials)))]
        assert sizes == want

    def test_max_attempts_fails_trials_one_by_one(self, protocol_models):
        for model, a in protocol_models:
            batched = assert_matches_batch_of_one(teleport_config(model, a),
                                                  TrialStreams(25, range(200)),
                                                  max_attempts=1)
            failed = sum(record is None for record, _ in batched)
            assert 0 < failed < 200
            block, = forced_measurements(teleport_config(model, a), TARGET, RECOVERY,
                                         TrialStreams(25, range(200)), max_attempts=1)
            assert int(np.count_nonzero(~block.succeeded)) == failed
            assert set(block.attempts.tolist()) == {1}

    def test_shared_trace_is_trial_major(self, capsys, ising):
        # the CLI trace is the concatenation of the per-trial forced
        # measurements of default_rng([seed, t]), trial 0 first, with the
        # log-probability summed over the whole trace
        code = main(["teleport-stats", "--model", "ising", "--seed", "26",
                     "--trials", "40", "--trace"])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        state = teleport_config(ising, "1/2")
        pairs = [list(TARGET), list(RECOVERY)]
        start, log_probability = 0, 0.0
        for t in range(40):
            _, record = forced_measurement(state, TARGET, RECOVERY,
                                           np.random.default_rng([26, t]))
            made = record.outcomes[1:]  # without the initial vacuum recovery
            entries = trace[start:start + len(made)]
            assert [(e["pair"], e["outcome"]) for e in entries] == [
                (pairs[s % 2], c.label) for s, c in enumerate(made)]
            log_probability += math.log(record.trajectory_probability)
            assert math.isclose(entries[-1]["cumulative_log_probability"],
                                log_probability, abs_tol=1e-9)
            start += len(made)
        assert start == len(trace)

    @given(trials=st.integers(1, 40), first=st.integers(0, 2 ** 40),
           seed=st.integers(0, 2 ** 100), model_index=st.integers(0, 2))
    def test_property_batch_equals_batch_of_one(self, protocol_models, trials, first,
                                                seed, model_index):
        model, a = protocol_models[model_index]
        state = teleport_config(model, a)
        streams = TrialStreams(seed, range(first, first + trials))
        batched = assert_matches_batch_of_one(state, streams)
        # the same trials in two slices of the streams, as separate blocks
        cut = trials // 2
        parts = [blocks_as_trials(forced_measurements(state, TARGET, RECOVERY, part))
                 for part in (streams[:cut], streams[cut:])]
        assert len(parts[0]) + len(parts[1]) == trials
        for (record, _), (other, _) in zip(batched, parts[0] + parts[1]):
            assert record == other

    @settings(max_examples=20)
    @given(register=st.sampled_from([(0, 3), (0, 4), (0, 6), (0, 8), (1, 6), (1, 7)]),
           direction=st.sampled_from(["positive", "inverse"]),
           generator=st.integers(1, 7), trials=st.integers(2, 6),
           seed=st.integers(0, 2 ** 64))
    def test_property_large_registers(self, fibonacci, ising, register, direction,
                                      generator, trials, seed):
        # Fibonacci dim 13 to 10,946 and Ising dim 128 and 512, the first
        # step of a braid, whose target pair is adjacent for "positive" and
        # transported for "inverse".  Blocks of a few trials also narrow to
        # a single live column, which is summed as a vector is.
        model, charge = ((fibonacci, "1"), (ising, "1/2"))[register[0]]
        layout, _ = build_array(model, charge, register[1])
        state = random_encoded_state(layout, np.random.default_rng(seed))
        quad = layout.quad(1 + (generator - 1) % (register[1] - 1))
        assert_matches_batch_of_one(state, TrialStreams(seed, range(trials)),
                                    pairs=_quad_steps(quad, direction)[0])


@pytest.mark.parametrize("name,model_args,seed", [
    ("ising", ["--model", "ising"], 2718),
    ("fibonacci", ["--model", "fibonacci"], 3141),
    ("su2_k3", ["--model", "su2_k", "--k", "3"], 1618),
    # a 3-word seed: SeedSequence sees 4 entropy words, the trial id last
    ("fibonacci_multiword_seed", ["--model", "fibonacci"], 2 ** 64 + 1),
])
def test_teleport_stats_golden(capsys, name, model_args, seed):
    # golden outputs made with one numpy Generator per trial (tests/data/README.md)
    code = main(["teleport-stats", *model_args, "--seed", str(seed),
                 "--trials", "1100"])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"teleport_stats_{name}.json").read_text()


def test_teleport_stats_trace_golden(capsys):
    code = main(["teleport-stats", "--model", "fibonacci", "--seed", "4",
                 "--trials", "30", "--trace"])
    assert code == 0
    assert capsys.readouterr().out == (
        DATA / "teleport_stats_trace_fibonacci.json").read_text()
