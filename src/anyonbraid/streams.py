"""Per-trial random streams as arrays.

Trial ``t`` of a stochastic command draws from ``default_rng([seed, t])``.
That stream is fixed by documented algorithms, so :class:`TrialStreams`
computes it for many trials at once with numpy integer arithmetic, bit for
bit, without building one ``Generator`` per trial:

- ``SeedSequence`` hashes the 32-bit words of ``seed`` then ``t`` (least
  significant first) into a pool of 4 words and expands the pool into the
  four 64-bit PCG64 seed words.  Its hash constants do not depend on the
  data, so every trial runs the same uint32 operations on one array column.
  Trials are grouped by their number of words.
- PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", 2014) is the
  128-bit LCG ``x -> M x + inc``.  Its state after ``k`` steps is
  ``A_k x_0 + C_k inc (mod 2**128)`` with ``A_k = M**k`` and
  ``C_k = 1 + M + ... + M**(k-1)``, so draw ``s`` of every trial is a
  closed form: no state is carried from one draw to the next.  The 128-bit
  products run on uint64 halves.
- Each draw is the XSL-RR 128/64 output of the state, and ``random()`` is
  its top 53 bits times ``2**-53``.

:func:`anyonbraid.teleport.forced_measurements` takes a
:class:`TrialStreams` and runs it in slices.  A single trajectory
(``braid-check``, ``run``) draws from a :class:`Stream`, one trial's
stream read a block of :data:`STREAM_BLOCK` draws at a time through
:meth:`TrialStreams.random`, so no ``Generator`` is built and
``numpy.random`` is never imported.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy.random.SeedSequence constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

#: The PCG64 multiplier ``M``.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Rows :meth:`TrialStreams.row` computes at a time for the live columns.
PREFETCH_ROWS = 4
#: Draws :class:`Stream` computes at a time.  A draw depends only on its
#: index, so this sets speed, never a value.
STREAM_BLOCK = 256


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first (``[0]`` for 0),
    as ``SeedSequence`` reads an integer."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    out = [n & _M32]
    while n := n >> 32:
        out.append(n & _M32)
    return out


def _hash_constants(start: int, mult: int) -> Iterator[int]:
    """``start * mult**i mod 2**32`` for ``i = 0, 1, ...``."""
    return itertools.accumulate(itertools.repeat(mult), lambda h, m: h * m & _M32,
                                initial=start)


def _shift_mix(v):
    return v ^ (v >> np.uint32(16))


def _seed_sequence_state(entropy: list) -> tuple:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for each column,
    as four uint64 arrays.

    ``entropy`` lists the words in order, each a uint32 array over the
    trials.
    """
    const = _hash_constants(_INIT_A, _MULT_A)
    hc = next(const)

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = next(const)
        return _shift_mix(v * np.uint32(hc))

    def mix(x, y):
        return _shift_mix(np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hb = list(itertools.islice(_hash_constants(_INIT_B, _MULT_B), 9))
    out = [_shift_mix((pool[i % _POOL] ^ np.uint32(hb[i])) * np.uint32(hb[i + 1]))
           .astype(np.uint64) for i in range(8)]
    return tuple(out[2 * j] | out[2 * j + 1] << np.uint64(32) for j in range(4))


def _mulhi(a, b):
    """High 64 bits of the 128-bit products ``a * b`` of uint64 arrays,
    from 32-bit limbs."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    carry = ((lo >> s32) + (m1 & m32) + (m2 & m32)) >> s32
    return a1 * b1 + (m1 >> s32) + (m2 >> s32) + carry


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``a * b mod 2**128`` on (high, low) uint64 halves."""
    return _mulhi(a_lo, b_lo) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as (high, low) uint64 column vectors."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64)[:, None],
            np.array([v & _M64 for v in values], dtype=np.uint64)[:, None])


def _jump(rows: range) -> tuple[list[int], list[int]]:
    """``A_k = M**k`` and ``C_k = 1 + M + ... + M**(k-1) (mod 2**128)`` for
    every ``k`` in ``rows``: the LCG state after ``k`` steps from ``x`` is
    ``A_k x + C_k inc``."""
    # (A, C) of k steps compose as A_(a+b) = A_a A_b, C_(a+b) = C_a + A_a C_b:
    # square-and-multiply for the first row, then one step per row.
    a, c = 1, 0
    a_bit, c_bit, k = _PCG_MULT, 1, rows.start
    while k:
        if k & 1:
            a, c = a * a_bit & _M128, (c + a * c_bit) & _M128
        a_bit, c_bit = a_bit * a_bit & _M128, c_bit * (1 + a_bit) & _M128
        k >>= 1
    out_a, out_c = [], []
    for _ in rows:
        out_a.append(a)
        out_c.append(c)
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
    return out_a, out_c


class TrialStreams:
    """The random streams ``default_rng([seed, t])`` of the trial ids
    ``trials``, drawn as arrays.

    Column ``i`` is trial ``trials[i]``.  :meth:`random` returns any block
    of draws without state; :meth:`row` serves the lockstep engine one draw
    per live column and round from prefetched blocks.  Slicing gives the
    streams of a slice of the trials.  Seeding is deferred to the first
    draw, so a ``range`` of ids costs no memory until a slice of it draws.
    Trial ids must lie in ``[0, 2**64)``; the seed may be any non-negative
    integer.
    """

    def __init__(self, seed: int, trials: Sequence[int]):
        self.seed = int(seed)
        self.trials = trials
        self._seed_words = _words(self.seed)
        self._state = None  # (init_hi, init_lo, inc_hi, inc_lo) per trial
        self._block = None  # prefetched draws, rows from _first, columns _cols
        self._first = 0
        self._cols = None

    def __len__(self) -> int:
        return len(self.trials)

    def __getitem__(self, index: slice) -> "TrialStreams":
        return TrialStreams(self.seed, self.trials[index])

    def _seeded(self):
        """PCG64 seed state of every trial: the 128-bit ``initstate`` and
        the odd increment ``2 * initseq + 1``, as uint64 halves."""
        if self._state is None:
            ids = np.asarray(self.trials, dtype=np.uint64).reshape(-1)
            state = np.empty((4, len(ids)), dtype=np.uint64)
            wide = ids > np.uint64(_M32)
            for group in (np.flatnonzero(~wide), np.flatnonzero(wide)):
                if not len(group):
                    continue
                t = ids[group]
                words = [np.full(len(t), w, dtype=np.uint32) for w in self._seed_words]
                words.append((t & np.uint64(_M32)).astype(np.uint32))
                if wide[group[0]]:
                    words.append((t >> np.uint64(32)).astype(np.uint32))
                state[:, group] = _seed_sequence_state(words)
            init_hi, init_lo, seq_hi, seq_lo = state
            one, s63 = np.uint64(1), np.uint64(63)
            self._state = (init_hi, init_lo,
                           seq_hi << one | seq_lo >> s63, seq_lo << one | one)
        return self._state

    def random(self, rows: range, columns=slice(None)) -> np.ndarray:
        """Draws ``rows`` (a range of consecutive draw indices) of the trials
        at ``columns``: entry ``[r, i]`` is the ``rows[r]``-th ``random()``
        of ``default_rng([seed, t])``, ``t`` the id of column ``columns[i]``.
        Shape ``(len(rows), n_columns)``."""
        init_hi, init_lo, inc_hi, inc_lo = (v[columns] for v in self._seeded())
        # Seeding steps the LCG from 0, adds ``initstate`` and steps again,
        # and each draw steps once before its output; so draw s outputs
        # M**(s+2) * initstate + C_(s+3) * inc.
        a, c = _jump(range(rows.start + 2, rows.stop + 3))
        a_hi, a_lo = _halves(a[:-1])
        c_hi, c_lo = _halves(c[1:])
        x_hi, x_lo = _mul128(a_hi, a_lo, init_hi, init_lo)
        y_hi, y_lo = _mul128(c_hi, c_lo, inc_hi, inc_lo)
        lo = x_lo + y_lo
        hi = x_hi + y_hi + (lo < x_lo)
        # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return (out >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def row(self, s: int, live: np.ndarray) -> np.ndarray:
        """Draw ``s`` of the columns ``live`` (ascending).

        Draws come from a block of :data:`PREFETCH_ROWS` rows computed for
        the columns live when it was filled; a new block is computed only
        when ``s`` passes its end or a column outside it asks.
        """
        block, cols = self._block, self._cols
        if block is None or not self._first <= s < self._first + len(block):
            return self._refill(s, live)
        at = np.searchsorted(cols, live)
        if len(live) and (at[-1] >= len(cols) or (cols[at] != live).any()):
            return self._refill(s, live)
        return block[s - self._first, at]

    def _refill(self, s: int, live: np.ndarray) -> np.ndarray:
        self._block = self.random(range(s, s + PREFETCH_ROWS), live)
        self._first, self._cols = s, np.array(live)
        return self._block[0]


class Stream:
    """The stream ``default_rng([seed, trial])`` of one trial, as an object
    whose :meth:`random` returns its next double, bit for bit
    ``default_rng([seed, trial]).random()``.

    The doubles are column 0 of ``TrialStreams(seed, [trial])``, computed
    :data:`STREAM_BLOCK` at a time when the previous block runs out.
    """

    def __init__(self, seed: int, trial: int):
        self._draws = self._blocks(TrialStreams(seed, [trial]))

    @staticmethod
    def _blocks(streams: TrialStreams) -> Iterator[float]:
        for start in itertools.count(0, STREAM_BLOCK):
            yield from streams.random(range(start, start + STREAM_BLOCK))[:, 0].tolist()

    def random(self) -> float:
        """The next double of the stream."""
        return next(self._draws)
