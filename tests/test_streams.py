"""Vectorised per-trial streams against numpy's own generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anyonbraid import forced_measurement, forced_measurements, teleport
from anyonbraid.streams import PREFETCH_ROWS, TrialStreams

from conftest import teleport_config

#: Seeds of 1, 2, 3 and 5 32-bit words: 5 words overflow SeedSequence's pool
#: of 4 even before the trial id is appended.
SEED_WORDS = st.sampled_from([1, 2, 3, 5])
#: Trial ids on both sides of 2**32, where an id grows from one word to two.
TRIAL_ID = st.one_of(st.integers(0, 300), st.integers(2 ** 32 - 3, 2 ** 32 + 3),
                     st.integers(0, 2 ** 64 - 1))


def seed_of(words: int, low: int) -> int:
    """A seed of exactly ``words`` 32-bit words (one word may be 0)."""
    top_bit = 1 << 32 * words - 1 if words > 1 else 0
    return top_bit | low % (1 << 32 * words)


def reference(seed, trials, stop):
    """``default_rng([seed, t]).random(stop)`` of every trial, as rows."""
    return np.array([np.random.default_rng([seed, t]).random(stop) for t in trials]).T


@given(words=SEED_WORDS, low=st.integers(0, 2 ** 160), trials=st.lists(TRIAL_ID, min_size=1,
       max_size=12), start=st.integers(0, 40), rows=st.integers(1, 6), data=st.data())
def test_property_streams_equal_default_rng(words, low, trials, start, rows, data):
    seed = seed_of(words, low)
    streams = TrialStreams(seed, np.array(trials, dtype=np.uint64))
    want = reference(seed, trials, start + rows)[start:]
    columns = np.array(sorted(data.draw(st.sets(st.integers(0, len(trials) - 1),
                                                min_size=1))))
    got = streams.random(range(start, start + rows), columns)
    assert got.dtype == np.float64
    assert np.array_equal(got, want[:, columns])
    assert np.array_equal(streams.random(range(start, start + rows)), want)


@pytest.mark.parametrize("seed", [0, 3, 2 ** 63 - 1, 2 ** 100 + 12345, 18446744073709551617])
def test_known_seeds_and_wide_ids(seed):
    trials = list(range(300)) + [2 ** 32 - 1, 2 ** 32, 2 ** 40]
    got = TrialStreams(seed, np.array(trials, dtype=np.uint64)).random(range(12))
    assert np.array_equal(got, reference(seed, trials, 12))


def test_slices_and_ranges():
    streams = TrialStreams(5, range(1000))
    assert len(streams) == 1000
    part = streams[300:310]
    assert len(part) == 10 and part.trials == range(300, 310)
    assert np.array_equal(part.random(range(3)), reference(5, range(300, 310), 3))
    assert [len(streams[i:i + 400]) for i in range(0, 1000, 400)] == [400, 400, 200]


def test_row_follows_lockstep_rounds():
    """``row`` serves the s-th draw of each live column across prefetch
    refills, while columns leave at every round."""
    trials = 40
    streams = TrialStreams(11, range(trials))
    want = reference(11, range(trials), 3 * PREFETCH_ROWS)
    live = np.arange(trials)
    for s in range(3 * PREFETCH_ROWS):
        assert np.array_equal(streams.row(s, live), want[s, live])
        live = live[(live + s) % 3 != 0] if len(live) > 1 else live


def test_row_refills_for_a_column_outside_the_block():
    streams = TrialStreams(12, range(10))
    want = reference(12, range(10), 2)
    assert np.array_equal(streams.row(0, np.array([2, 5])), want[0, [2, 5]])
    assert np.array_equal(streams.row(1, np.array([5, 9])), want[1, [5, 9]])


def _spy_draws(monkeypatch):
    """Record the draw and the projections' shape, one row of ``dim``
    amplitudes per channel, of every sampled measurement of the lockstep
    engine."""
    seen = []
    sample = teleport._sample_columns

    def spy(op, projections, weights, u):
        seen.append((u, projections.shape))
        return sample(op, projections, weights, u)

    monkeypatch.setattr(teleport, "_sample_columns", spy)
    return seen


def test_generator_streams_draw_in_order(fibonacci, monkeypatch):
    # a single trajectory draws its generator's doubles, one per
    # measurement in the order it makes them, and no others
    seen = _spy_draws(monkeypatch)
    state = teleport_config(fibonacci, "1")
    for t in range(4):
        rng = np.random.default_rng([13, t])
        seen.clear()
        _, record = forced_measurement(state, (1, 2), (0, 1), rng)
        made = len(record.outcomes) - 1  # without the initial vacuum recovery
        want = reference(13, [t], made + 1)[:, 0]
        assert [u for u, _ in seen] == want[:made].tolist()
        assert rng.random() == want[made]


def test_a_single_generator_draws_a_scalar(fibonacci, monkeypatch):
    # a generator hands the engine scalar draws and a block of one trial
    # of TrialStreams a draw of shape (1,); both run on a (dim,) vector,
    # whose projections onto the two Fibonacci channels carry no trial axis
    seen = _spy_draws(monkeypatch)
    state = teleport_config(fibonacci, "1")
    forced_measurement(state, (1, 2), (0, 1), np.random.default_rng([14, 3]))
    single = list(seen)
    seen.clear()
    block, = forced_measurements(state, (1, 2), (0, 1), TrialStreams(14, [3]))
    assert block.amps.shape == (state.dim, 1)
    want = reference(14, [3], len(single))[:, 0]
    assert all(isinstance(u, float) and shape == (2, state.dim) for u, shape in single)
    assert all(u.shape == (1,) and shape == (2, state.dim) for u, shape in seen)
    assert [u for u, _ in single] == [float(u[0]) for u, _ in seen] == want.tolist()


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        TrialStreams(-1, range(3))
