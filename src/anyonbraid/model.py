"""Algebraic data of multiplicity-free anyon models.

An :class:`AnyonModel` bundles a finite charge set with its fusion rules
(``N_ab^c`` restricted to 0/1), quantum dimensions, F-symbols and R-symbols,
plus derived quantities (duals, Frobenius-Schur phases, the Abelian
predicate).  Models are immutable after construction and safe to share
between threads or worker processes.

Built-in models
---------------
``fibonacci``
    Charges ``0, 1`` with ``1 x 1 = 0 + 1`` and ``d_1`` the golden ratio.
``ising``
    Charges ``0, 1/2, 1`` (vacuum, sigma, psi) with ``d_{1/2} = sqrt(2)``,
    in the variant whose Frobenius-Schur sign for ``1/2`` is ``+1``.
``su2_k``
    Charges ``0, 1/2, ..., k/2`` with level-truncated SU(2) fusion.  F-symbols
    come from the q-deformed 6j recoupling at ``q = exp(2*pi*i/(k+2))``; the
    Frobenius-Schur sign of the half-integer charges is ``-1``.

Gauge and chirality conventions are fixed per model: F-matrices are real in
the built-in gauge, and the stored ``R_c^{ab}`` is the phase picked up by a
counterclockwise exchange (the ``+1`` braid sign in
:mod:`anyonbraid.fusion_space`).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, UnknownChargeError

#: Default tolerance for consistency checks.
CONSISTENCY_TOL = 1e-10

#: Most charges a model may have, kept where a dense F table of m**6
#: complex entries was 256 MiB (16 charges, su2_k at k = 15).  F is stored
#: as its admissible rows, 11.6 MiB there with a 4 MiB row index, and
#: building and verifying su2_k at k = 15 peaks near 200 MB of RSS on one
#: CPU or two.  The pentagon numbers each of its fusion trees by seven
#: charges in one int32, 28 bits at 16 charges.
MAX_CHARGES = 16


@dataclass(frozen=True, order=True)
class Charge:
    """One topological charge of a model, identified by its stable index.

    The label is presentation-layer only; equality and ordering use the
    index so that charges can key dictionaries and sort deterministically.
    """

    index: int
    label: str = field(compare=False)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ConsistencyReport:
    """Maximum residuals of the defining consistency equations of a model."""

    max_pentagon_residual: float
    max_hexagon_residual: float
    max_unitarity_residual: float
    qdim_residual: float
    tolerance: float
    passed: bool


class AnyonModel:
    """Immutable container for the data of one multiplicity-free anyon model.

    Parameters
    ----------
    name : str
        Identifier used in reports and serialized schedules.
    labels : sequence of str
        Charge labels; the first entry must be the vacuum.
    fusion : (m, m, m) int array
        ``fusion[a, b, c] = N_ab^c`` with values 0 or 1.
    qdim : (m,) float array
        Quantum dimensions ``d_a``.
    f_symbols : complex array, dense ``(m,) * 6`` or rows ``(n + 1, m)``
        Either the dense table ``f_symbols[a, b, c, d, e, f] = [F_d^{abc}]_{ef}``
        or F's row store: row r is ``[F_d^{abc}]_{e,.}`` for the r-th of the
        n admissible rows ``(a, b, c, d, e)`` (e in ab and d in ec) in C
        order, and the last row is zero.  Only the admissible entries are
        kept; the largest ``|F|`` elsewhere, where F must vanish, counts
        towards the unitarity residual.
    r_symbols : (m, m, m) complex array
        ``r_symbols[a, b, c] = R_c^{ab}``, a unit phase for admissible ``c``.
    params : dict, optional
        Construction parameters (e.g. ``{"k": 4}``).
    meta : dict, optional
        Free-form provenance notes (gauge, chirality, preferred charge).

    F is read through :meth:`f_rows`; :attr:`F` is a dense copy, built on
    first read for callers that want the whole ``(m,) * 6`` table.
    """

    def __init__(self, name, labels, fusion, qdim, f_symbols, r_symbols,
                 params=None, meta=None):
        self.name = str(name)
        self.labels = tuple(str(l) for l in labels)
        m = len(self.labels)
        self.num_charges = m
        self.N = np.ascontiguousarray(fusion, dtype=np.int8)
        self.qd = np.ascontiguousarray(qdim, dtype=float)
        self.R = np.ascontiguousarray(r_symbols, dtype=complex)
        self.params = dict(params or {})
        self.meta = dict(meta or {})
        self._charges = tuple(Charge(i, lab) for i, lab in enumerate(self.labels))
        self._by_label = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._by_label) != m:
            raise ModelError(f"duplicate charge labels in model {self.name!r}")
        self._validate_tables()
        self._f_row, self._f_store, self._f_off = _f_store(self.N, f_symbols)
        for arr in (self.N, self.qd, self.R, self._f_row, self._f_store):
            arr.flags.writeable = False
        self._dual = self._find_duals()
        self._validate_duals()
        channels = [np.flatnonzero(self.N[a, a]) for a in range(m)]
        self._twists = tuple(complex(np.sum(self.qd[c] * self.R[a, a, c]) / self.qd[a])
                             for a, c in enumerate(channels))
        # The operator cache, read and written only through
        # fusion_space._cached: keyed by builder and arguments, each value
        # read-only from the moment it is stored and never replaced, so
        # concurrent readers at worst build a value twice.
        self._cache: dict = {}

    def f_rows(self, *index) -> np.ndarray:
        """Rows ``[F_d^{abc}]_{e,.}`` of F at ``index``, a numpy index into
        the axes ``(a, b, c, d, e)``, with ``f`` on a new last axis; entries
        off the admissible set read as zero."""
        return self._f_store[self._f_row[index]]

    @functools.cached_property
    def F(self) -> np.ndarray:
        """The dense ``(m,) * 6`` table ``F[a, b, c, d, e, f] = [F_d^{abc}]_{ef}``,
        zero off the admissible set; built from the rows on first read, then
        kept, and read-only."""
        dense = self.f_rows(...)
        dense.flags.writeable = False
        return dense

    # -- charge bookkeeping -------------------------------------------------

    @property
    def charges(self) -> tuple[Charge, ...]:
        return self._charges

    @property
    def vacuum(self) -> Charge:
        return self._charges[0]

    def charge(self, x) -> Charge:
        """Coerce a label, index or Charge to this model's canonical Charge."""
        if isinstance(x, Charge):
            if 0 <= x.index < self.num_charges and self.labels[x.index] == x.label:
                return self._charges[x.index]
            raise UnknownChargeError(f"charge {x} is not part of model {self.name!r}")
        if isinstance(x, (int, np.integer)):
            if 0 <= x < self.num_charges:
                return self._charges[int(x)]
            raise UnknownChargeError(f"charge index {x} out of range for model {self.name!r}")
        if isinstance(x, str):
            try:
                return self._charges[self._by_label[x]]
            except KeyError:
                raise UnknownChargeError(
                    f"charge label {x!r} not in model {self.name!r} "
                    f"(labels: {', '.join(self.labels)})") from None
        raise UnknownChargeError(f"cannot interpret {x!r} as a charge")

    def dual(self, a) -> Charge:
        return self._charges[self._dual[self.charge(a).index]]

    # -- fusion algebra -----------------------------------------------------

    def fuse(self, a, b) -> tuple[Charge, ...]:
        """All charges ``c`` with ``N_ab^c = 1``, in index order."""
        ia, ib = self.charge(a).index, self.charge(b).index
        return tuple(self._charges[c] for c in np.flatnonzero(self.N[ia, ib]))

    def twist(self, a) -> complex:
        """Topological spin ``theta_a = sum_c (d_c / d_a) R_c^{aa}``."""
        return self._twists[self.charge(a).index]

    # -- consistency --------------------------------------------------------

    def verify_consistency(self, tolerance: float = CONSISTENCY_TOL) -> ConsistencyReport:
        """Residuals of pentagon, hexagon (both chiralities), F-unitarity
        and the quantum-dimension fusion identity.

        When the pentagon walk is large enough to start a thread
        (:func:`_walk`), the caller builds its set-up
        (:func:`_pentagon_setup`) while a thread walks the
        hexagon/unitarity blocks on every CPU but the caller's, and the
        pentagon is then walked on every CPU, so at most
        :func:`_cpu_count` threads work at once.  Otherwise the two checks
        run one after the other, and a model too small for a thread starts
        none.  Failures are reported, never raised.
        """
        N, row_of, store = self.N, self._f_row, self._f_store
        if _workers(_pentagon_equations(N)) > 1:
            pentagon, (hexa, unit) = _beside(
                lambda: _pentagon_setup(N, row_of, store),
                lambda: _block_residuals(N, row_of, store, self.R, _cpu_count() - 1))
            (pent,) = _walk(*pentagon)
        else:
            pent = _pentagon_residual(N, row_of, store)
            hexa, unit = _block_residuals(N, row_of, store, self.R)
        unit = unit + self._f_off
        qres = _qdim_residual(self.N, self.qd)
        worst = _worst(pent, hexa, unit, qres)
        return ConsistencyReport(pent, hexa, unit, qres, tolerance,
                                 bool(np.isfinite(worst) and worst < tolerance))

    def vacuum_probability_residual(self) -> float:
        """Worst deviation of ``|[F_a^{a,dual(a),a}]_{e0}|^2`` from ``d_e/d_a^2``.

        This is the identity behind the per-attempt success probability of a
        forced measurement; it must vanish for any consistent unitary model.
        """
        worst = 0.0
        for a in range(self.num_charges):
            ab = self._dual[a]
            da2 = self.qd[a] ** 2
            for e in np.flatnonzero(self.N[a, ab]):
                got = abs(self.f_rows(a, ab, a, a, e)[0]) ** 2
                worst = max(worst, abs(got - self.qd[e] / da2))
        return worst

    # -- internals ----------------------------------------------------------

    def _find_duals(self) -> np.ndarray:
        dual = np.full(self.num_charges, -1, dtype=int)
        for a in range(self.num_charges):
            partners = np.flatnonzero(self.N[a, :, 0])
            if len(partners) != 1:
                raise ModelError(
                    f"charge {self.labels[a]!r} must have exactly one dual, "
                    f"found {len(partners)}")
            dual[a] = partners[0]
        return dual

    def _validate_tables(self) -> None:
        m = self.num_charges
        if self.N.shape != (m, m, m):
            raise ModelError("fusion table has wrong shape")
        if self.R.shape != (m,) * 3:
            raise ModelError("F/R tables have wrong shape")
        if self.qd.shape != (m,):
            raise ModelError("quantum-dimension vector has wrong shape")
        for what, arr in (("quantum dimensions", self.qd), ("R-symbols", self.R)):
            if not np.isfinite(arr).all():
                raise ModelError(f"{what} must be finite (found NaN or infinity)")
        if np.any((self.N != 0) & (self.N != 1)):
            raise ModelError("fusion multiplicities must be 0 or 1")
        eye = np.eye(m, dtype=np.int8)
        if not (np.array_equal(self.N[0], eye) and np.array_equal(self.N[:, 0], eye)):
            raise ModelError("the first charge must act as the vacuum")
        if np.any(self.N != self.N.transpose(1, 0, 2)):
            raise ModelError("fusion must be commutative")
        # Associativity of the fusion ring, needed for well-defined bases.
        lhs = np.einsum("abe,ecd->abcd", self.N, self.N)
        rhs = np.einsum("bcf,afd->abcd", self.N, self.N)
        if np.any(lhs != rhs):
            raise ModelError("fusion rules are not associative")
        if abs(self.qd[0] - 1.0) > 1e-12 or np.any(self.qd < 1.0 - 1e-9):
            raise ModelError("quantum dimensions must satisfy d_0 = 1 and d_a >= 1")

    def _validate_duals(self) -> None:
        if np.any(np.abs(self.qd - self.qd[self._dual]) > 1e-9):
            raise ModelError("quantum dimensions must satisfy d_a = d_dual(a)")
        if np.any(self._dual[self._dual] != np.arange(self.num_charges)):
            raise ModelError("dual map must be an involution")

    def __repr__(self) -> str:
        extra = "".join(f", {k}={v}" for k, v in sorted(self.params.items()))
        return f"AnyonModel({self.name!r}{extra})"


# ---------------------------------------------------------------------------
# Consistency residuals.
#
# The pentagon check is the hot path: SU(2)_10 has 1,470,040 admissible
# instances and SU(2)_12 5,770,583, but only 243,100 and 714,103 fusion trees
# of each kind.  Every index set is read from the admissible rows and columns
# of the F-matrices (two m^5 masks, whose product is F's admissible set).
# The pentagon's left trees join those rows with one fusion triple each, in
# one enumeration and one sort; fusion is commutative, so its right trees
# are left trees with mirrored outer labels, read off the same table.  One
# walk over F's admissible blocks checks unitarity and both hexagons.  F is
# stored as its admissible rows, an (n + 1, m) array addressed by one m^5
# int32 index whose misses point at a last, zero row.  Each pentagon
# equation is one (left tree, right tree) pair, evaluated with gathers from
# that store and from two more such padded tables of F's entries, whose rows
# run along another axis of F.  Inadmissible entries read as exact zeros,
# which lets the internal sums run over the full charge range.
#
# Both walks go through :func:`_walk`, which spreads their blocks over the
# CPUs the process may run on: the caller and one thread per further CPU
# each take the next block in turn, and a block holds _BLOCK / workers
# equations, so at most _BLOCK are in flight.  A walk has no more workers
# than it has shares of _BLOCK / 4 equations, below which a thread costs
# more than it walks, so a small model's walks start no thread.  A block's
# arithmetic does not depend on which thread runs it or on how many
# equations share it (each equation sums its own terms in a fixed order),
# and a maximum does not depend on the order it is taken in, so every
# residual has the same bits for any number of workers.
#
# The pentagon's set-up (its trees and their int32 offsets) is serial.  When
# the pentagon walk would start a thread, the caller builds that set-up while
# a thread walks the hexagon/unitarity blocks on the other CPUs
# (:func:`_beside`).  Building it on the caller's thread matters: on a
# thread of its own beside the same walk it took about 60 ms instead of
# 40 ms (2 vCPUs, su2_k at k = 11), and the overlap gained nothing.
# ---------------------------------------------------------------------------


#: Equations (or matrix entries) in flight at once in a block walk, shared
#: out among its workers.
_BLOCK = 65536


def _worst(*residuals) -> float:
    """The largest of ``residuals``, NaN if any is NaN (Python's ``max``
    keeps its first argument against a NaN)."""
    return float(np.max(residuals))


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _workers(equations: int, cpus: int | None = None) -> int:
    """Workers of a walk of ``equations``: one per CPU of ``cpus``, by
    default :func:`_cpu_count`, but no more than the equations fill shares
    of ``_BLOCK // 4``."""
    cpus = _cpu_count() if cpus is None else cpus
    return max(1, min(cpus, equations // max(_BLOCK // 4, 1)))


def _walk(starts: np.ndarray, dims: np.ndarray, residual,
          cpus: int | None = None) -> tuple[float, ...]:
    """The worst of ``residual(block)`` over the blocks of :func:`_blocks`
    of the runs ``starts`` and ``dims``, column by column, with the blocks
    spread over :func:`_workers` workers.

    ``residual`` maps a block to a tuple of maxima.  The caller walks as
    one worker and starts a thread for each other; each block holds
    ``_BLOCK // workers`` equations, so at most ``_BLOCK`` are in flight.
    There are no more workers than ``cpus``, by default every CPU the
    process may use, and no more than the walk's equations fill shares of
    ``_BLOCK // 4``, so a small walk starts no thread.  The first exception
    in any worker, an interrupt of the caller included, stops the others
    after their current block and is raised here once every thread has
    been joined.
    """
    workers = _workers(int(np.dot(dims, dims)), cpus)
    blocks = _blocks(starts, dims, _BLOCK // workers)
    lock = threading.Lock()  # a generator runs in one thread at a time
    maxima, failed = [], []

    def work():
        try:
            while not failed:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                maxima.append(residual(block))
        except BaseException as exc:  # raised in the caller below
            failed.append(exc)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    except BaseException as exc:  # a thread that would not start, or an interrupt
        failed.append(exc)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]
    return tuple(_worst(0.0, *column) for column in zip(*maxima))


def _beside(main, side):
    """``(main(), side())``, with ``side`` run on a thread of its own while
    the caller runs ``main``.  The first exception of either, an interrupt
    of the caller included, is raised once the thread has been joined."""
    results, failed = [], []

    def run():
        try:
            results.append(side())
        except BaseException as exc:  # raised in the caller below
            failed.append(exc)

    thread = threading.Thread(target=run)
    try:
        thread.start()
        value = main()
    except BaseException as exc:  # main's own, or a thread that would not start
        failed.append(exc)
    finally:
        if thread.ident is not None:
            thread.join()
    if failed:
        raise failed[0]
    return value, results[0]


def _real_if_real(F: np.ndarray) -> np.ndarray:
    """``F``, or a view of its real part when no entry has an imaginary
    part; real arithmetic halves the memory traffic of the gathers and
    products, and the view copies nothing."""
    return F if np.any(F.imag) else F.real


def _admissible_blocks(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The admissible rows and columns of every F-matrix ``F_d^{abc}``, as
    masks of rows ``(a, b, c, d, e)``, e in ab and d in ec, and of columns
    ``(a, b, c, d, f)``, f in bc and d in af.

    The admissible entries of F are their product.  Fusion is associative,
    so each matrix has as many admissible rows as columns, and the
    ``argwhere`` tables of both masks hold each matrix's D rows and D
    columns at the same positions.
    """
    N = N.astype(bool)
    rows = N[:, :, None, None, :] & N.transpose(1, 2, 0)[None, None]
    columns = N[None, :, :, None, :] & N.transpose(0, 2, 1)[:, None, None]
    return rows, columns


def _admissible_entries(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F's admissible entries: the ``(E, 6)`` table of their indices
    ``(a, b, c, d, e, f)`` in C order, and the number of each one's row
    ``(a, b, c, d, e)`` among the admissible rows of :func:`_admissible_blocks`."""
    rows, columns = _admissible_blocks(N)
    es = np.argwhere(rows)
    r, f = np.nonzero(columns[tuple(es[:, :4].T)])
    return np.column_stack([es[r], f]).astype(np.uint8), r


def _regroup(m: int, idx: np.ndarray, values: np.ndarray,
             axis: int) -> tuple[np.ndarray, np.ndarray]:
    """F's entries ``values`` at ``idx``, an ``(E, 6)`` table, as padded rows
    along ``axis``.

    Returns the ``(n + 1, m)`` table whose row r holds, at column
    ``idx[:, axis]``, the entries of the r-th of the n keys (their other
    five labels, in C order), zero elsewhere and in the last row; and the
    ``(m,) * 5`` int32 index of each key's row, where a miss points at that
    zero row.  Along axis 5 this is F's row store.
    """
    keys, row = np.unique(_ravel(m, *np.delete(idx, axis, axis=1).T), return_inverse=True)
    table = np.zeros((len(keys) + 1, m), values.dtype)
    table[row, idx[:, axis]] = values
    index = np.full(m ** 5, len(keys), dtype=np.int32)
    index[keys] = np.arange(len(keys), dtype=np.int32)
    return index.reshape((m,) * 5), table


def _f_store(N: np.ndarray, f_symbols) -> tuple[np.ndarray, np.ndarray, float]:
    """F as its admissible rows: ``(index, store, off)``.

    ``f_symbols`` is either the dense ``(m,) * 6`` table or the
    ``(n + 1, m)`` row store of :func:`_regroup` along axis 5.  ``store`` keeps
    its admissible entries, zero elsewhere, ``index`` numbers its rows, and
    ``off`` is the largest ``|F|`` it dropped, where F must vanish.
    """
    m = N.shape[0]
    F = np.asarray(f_symbols, dtype=complex)
    idx, r = _admissible_entries(N)
    if F.shape == (m,) * 6:
        at = tuple(idx.T)
    elif F.shape == (r[-1] + 2, m):
        at = (r, idx[:, 5])
    else:
        raise ModelError("F/R tables have wrong shape")
    if not np.isfinite(F).all():
        raise ModelError("F-symbols must be finite (found NaN or infinity)")
    outside = np.ones(F.shape, dtype=bool)
    outside[at] = False
    index, store = _regroup(m, idx, F[at], 5)
    return index, store, float(np.abs(F).max(where=outside, initial=0.0))


def _pentagon_trees(N: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both bases of the fusion space of four charges a, b, c, d into e, as
    ``(labels, starts, dims)``, sorted by their outer labels (a, b, c, d, e).

    A left tree ((ab)_f c)_g d -> e joins an admissible row (a, b, c, g, f)
    of the F-matrices (f in ab and g in fc; :func:`_admissible_blocks`)
    with a fusion triple (g, d, e), e in gd.  Each is enumerated once, as
    the int32 :func:`_ravel` of (a, b, c, d, e, g, f), and one sort puts
    the trees of an outer label together, ordered by (g, f).  A right tree
    a(b(cd)_l)_k -> e has l in cd, k in bl and e in ak.  Fusion is
    commutative, so those are the left trees of (d, c, b, a, e) with
    (l, k) = (f, g), in the same order.  Fusion is associative, so both
    bases of a space have the same dimension D, and the i-th left and the
    i-th right tree share their outer labels.  ``labels`` holds the uint8
    rows a, b, c, d, e, f, g, l, k, one column per tree; ``starts`` and
    ``dims`` are the first tree and D of each outer label.
    """
    m = N.shape[0]
    rows, _ = _admissible_blocks(N)
    a, b, c, g, f = np.nonzero(rows)
    vertex = _ravel(m, a, b, c, 0, 0, g, f)
    x, d, e = np.nonzero(N)  # the triples (g, d, e)
    triple = _ravel(m, d, e, 0, 0)
    trees = np.concatenate([np.add.outer(vertex[g == y], triple[x == y]).ravel()
                            for y in range(m)])
    trees.sort()  # every tree is a distinct integer
    outer = trees // (m * m)
    starts, dims = _runs(outer)
    key = outer[starts]
    gf = trees - outer * (m * m)  # g m + f
    del trees
    labels = np.empty((9, len(gf)), np.uint8)
    # e, d, c, b, a peeled off each tree's outer label in turn; numpy's
    # integer remainder is several times slower than a quotient
    for i in range(4, -1, -1):
        rest = outer // m
        labels[i] = outer - rest * m
        outer = rest
    del outer, rest
    labels[5], labels[6] = gf - gf // m * m, gf // m
    run = np.unravel_index(key, (m,) * 5)  # a b c d e of each run
    # (l, k) is (f, g) of the tree at the same place in the run of
    # (d, c, b, a, e), found through the first tree of every outer label
    first = np.zeros(m ** 5, np.int32)
    first[key] = starts
    a, b, c, d, e = run
    mirror = np.arange(len(gf), dtype=np.int32)
    mirror += np.repeat((first[_ravel(m, d, c, b, a, e)] - starts).astype(np.int32), dims)
    gf = gf[mirror]
    labels[7], labels[8] = gf - gf // m * m, gf // m
    return labels, starts, dims


def _ravel(m: int, *index) -> np.ndarray:
    """Flat int32 offsets of ``index`` in an array of shape ``(m,) * len(index)``,
    built in place in one array, without the intp copy of every index that
    ``np.ravel_multi_index`` makes."""
    flat = np.zeros(np.broadcast_shapes(*map(np.shape, index)), np.int32)
    for i in index:
        flat *= m
        flat += i
    return flat


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First entry and length D of each value of ``keys``, a 1-D array
    whose equal entries are adjacent."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return starts, np.diff(np.r_[starts, len(keys)])


def _blocks(starts: np.ndarray, dims: np.ndarray, chunk: int):
    """Yield ``(G, D)`` arrays of the entries of the runs ``starts`` (first
    entry) and ``dims`` (length D).

    Each row of a block holds the D entries of one run, every run of a
    block has the same D, and a block holds about ``chunk`` D x D entries
    (at least one run).
    """
    for D in np.flatnonzero(np.bincount(dims)).tolist():
        first = starts[dims == D]
        step = max(1, chunk // D ** 2)
        for g in range(0, len(first), step):
            yield first[g:g + step, None] + np.arange(D)


def _pentagon_equations(N: np.ndarray) -> int:
    """The pentagon's equations: the sum of D^2 over the outer labels
    (a, b, c, d, e) of :func:`_pentagon_trees`, counted from the fusion
    rules without building a tree."""
    m = N.shape[0]
    rows, _ = _admissible_blocks(N)
    # D[abc, de] = sum_g T[abc, g] N[g, de], with T the trees ((ab)_f c)_g,
    # so sum D^2 = sum_{g, g'} (T^T T)[g, g'] (N N^T)[g, g'], in integers
    T = rows.sum(axis=4).reshape(-1, m)
    Ng = N.reshape(m, -1).astype(np.int64)
    return int(np.sum((T.T @ T) * (Ng @ Ng.T)))


def _pentagon_residual(N: np.ndarray, row_of: np.ndarray, store: np.ndarray) -> float:
    """Worst residual of the pentagon equation

    ``[F_e^{fcd}]_{gl} [F_e^{abl}]_{fk}
    = sum_h [F_g^{abc}]_{fh} [F_e^{ahd}]_{gk} [F_k^{bcd}]_{hl}``

    over every pair of a left and a right fusion tree on the same outer
    labels, with F read from its row ``store`` and the store's m^5 row
    index ``row_of``: the set-up of :func:`_pentagon_setup`, then its
    :func:`_walk` on every CPU the process may use, about ``_BLOCK``
    equations in flight at once.
    """
    (worst,) = _walk(*_pentagon_setup(N, row_of, store))
    return worst


def _pentagon_setup(N: np.ndarray, row_of: np.ndarray, store: np.ndarray):
    """The pentagon walk's ``(starts, dims, block)``, for :func:`_walk`.

    The trees come from one sorted enumeration (:func:`_pentagon_trees`),
    the right ones read off the left.  The D left and D right trees of one
    outer label give a D x D block of equations, and ``block`` checks
    blocks of equal D as ``(G, D, D)`` arrays.  Each h-axis factor comes
    from a padded table of F's entries with h last (:func:`_regroup`): the
    row ``[F_g^{abc}]_{f.}`` of the store once per left tree, the column
    ``[F_k^{bcd}]_{.l}`` once per right tree and the middle factor once per
    pair.  Each tree keeps only int32 offsets, and every sum runs over
    ascending h, so an equation's residual has the same bits in any block
    and on any thread.
    """
    m = N.shape[0]
    labels, starts, dims = _pentagon_trees(N)
    idx, r = _admissible_entries(N)
    rows = np.ascontiguousarray(_real_if_real(store))  # [a,b,c,d,e] -> f
    values = rows[r, idx[:, 5]]
    mid_of, mid = _regroup(m, idx, values, 1)  # [a,c,d,e,f] -> b
    col_of, cols = _regroup(m, idx, values, 4)  # [a,b,c,d,f] -> e
    del idx, r, values
    row_of, mid_of, col_of = row_of.reshape(-1), mid_of.reshape(-1), col_of.reshape(-1)
    flat = rows.reshape(-1)
    a, b, c, d, e, f, g, l, k = labels
    left_row = row_of[_ravel(m, a, b, c, g, f)]       # [F_g^{abc}]_{f.}
    left_fcd = row_of[_ravel(m, f, c, d, e, g)]
    left_fcd *= m                                     # + l
    left_abl = _ravel(m, a, b, 0, e, f)               # + l m^2, then + k
    left_mid = _ravel(m, a, d, e, g, 0)               # + k
    right_col = col_of[_ravel(m, b, c, d, k, l)]      # [F_k^{bcd}]_{.l}
    l, k = l.copy(), k.copy()  # the other seven rows are not walked
    del labels, a, b, c, d, e, f, g
    mm = np.int32(m * m)

    def block(trees):
        il, ir = trees[:, :, None], trees[:, None, :]
        l_ir, k_ir = l[ir], k[ir]
        lhs = (flat[left_fcd[il] + l_ir]
               * flat[row_of[left_abl[il] + l_ir * mm] * m + k_ir])
        rhs = np.einsum("gih,gijh,gjh->gij", rows[left_row[trees]],
                        mid.take(mid_of[left_mid[il] + k_ir], axis=0),
                        cols[right_col[trees]])
        return (np.abs(lhs - rhs).max(),)

    return starts, dims, block


def _block_residuals(N: np.ndarray, row_of: np.ndarray, store: np.ndarray,
                     R: np.ndarray, cpus: int | None = None) -> tuple[float, float]:
    """Worst residuals of both hexagon equations and of F-unitarity, in one
    walk over the admissible blocks of the F-matrices, read from F's row
    ``store`` and its m^5 row index ``row_of``, on at most ``cpus`` CPUs
    (:func:`_walk`).

    The block of ``F_d^{abc}`` holds its admissible rows ``e`` and columns
    ``f``, and blocks of equal D are walked as ``(G, D, D)`` arrays on every
    CPU the process may use (:func:`_walk`), at most ``_BLOCK`` entries in
    flight at once.  Each matrix and each entry is checked on its own, so
    its residual does not depend on the block or thread that checks it.
    Each block must be unitary, checked as both ``F F^+`` and ``F^+ F``.  Each
    entry ``(a, b, c, d, e, f)`` of a block is the hexagon tuple
    ``(a, c, b, d, e, f)``: e in ac, d in eb, f in cb and d in af.
    """
    m = N.shape[0]
    rows, columns = _admissible_blocks(N)
    es, fs = np.argwhere(rows), np.argwhere(columns)
    idx, r = _admissible_entries(N)
    col_of, cols = _regroup(m, idx, store[r, idx[:, 5]], 4)  # [F_d^{abc}]_{.f}
    del idx, r
    Fu = _real_if_real(store)
    # One hexagon per chirality: R and its inverse must both recouple
    # consistently with F.  Each R comes with its copy [c, d, g].
    chiralities = [(S, np.ascontiguousarray(S.transpose(0, 2, 1))) for S in (R, np.conj(R))]

    def block(at):
        # the store's row of es[i] is row i
        at_e, f = at[:, :, None], fs[at, 4][:, None, :]
        mats = Fu[at_e, f]
        adj = mats.conj().transpose(0, 2, 1)
        eye = np.eye(at.shape[1])
        unitarity = _worst(np.abs(mats @ adj - eye).max(), np.abs(adj @ mats - eye).max())
        # the block's entries, one per row, as hexagon tuples
        entries = store[at_e, f].ravel()
        a, b, c, d = es[at[:, 0], :4].T[:, :, None, None]
        e = es[at_e, 4]
        a, c, b, d, e, f = (np.broadcast_to(x, mats.shape).ravel() for x in (a, b, c, d, e, f))
        mid = store[row_of[c, a, b, d, e]] * cols[col_of[a, b, c, d, f]]
        hexagon = 0.0
        for S, St in chiralities:
            lhs = S[c, a, e] * entries * S[c, b, f]
            rhs = np.einsum("rg,rg->r", mid, St[c, d, :])
            hexagon = _worst(hexagon, np.abs(lhs - rhs).max())
        return hexagon, unitarity

    return _walk(*_runs(_ravel(m, *es[:, :4].T)), block, cpus)


def _qdim_residual(N: np.ndarray, qd: np.ndarray) -> float:
    lhs = np.outer(qd, qd)
    rhs = np.einsum("abc,c->ab", N, qd)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# Built-in models.
# ---------------------------------------------------------------------------


def check_model_size(m: int) -> None:
    """Refuse a model of more than :data:`MAX_CHARGES` charges, before
    anything of its size is allocated."""
    if m > MAX_CHARGES:
        raise ModelError(f"{m} charges exceed the limit of {MAX_CHARGES} charges "
                         f"(su2_k up to k = {MAX_CHARGES - 1})")


def _fill_tables(m, fusion, f_values, r_func):
    """Dense N/R arrays, zero off the admissible set, and F's row store
    (:func:`_regroup`).  ``f_values`` maps the ``(E, 6)`` array of
    admissible F indices to their E values in one call; ``r_func`` gives one
    R entry."""
    N = np.zeros((m, m, m), dtype=np.int8)
    for (a, b), cs in fusion.items():
        for c in cs:
            N[a, b, c] = 1
    idx, _ = _admissible_entries(N)
    _, F = _regroup(m, idx, np.asarray(f_values(idx), dtype=complex), 5)
    R = np.zeros((m, m, m), dtype=complex)
    for a, b, c in np.argwhere(N).tolist():
        R[a, b, c] = r_func(a, b, c)
    return N, F, R


def _per_entry(f_func):
    """``f_values`` for :func:`_fill_tables` from a function of one entry."""
    return lambda idx: [f_func(*i) for i in idx.tolist()]


def fibonacci_model() -> AnyonModel:
    """The Fibonacci anyon model: charges 0 (vacuum) and 1 (tau)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    fmat = np.array([[1 / phi, 1 / math.sqrt(phi)],
                     [1 / math.sqrt(phi), -1 / phi]])
    r_tau = {0: np.exp(-4j * np.pi / 5.0), 1: np.exp(3j * np.pi / 5.0)}

    def f_func(a, b, c, d, e, f):
        if (a, b, c, d) == (1, 1, 1, 1):
            return fmat[e, f]
        return 1.0

    def r_func(a, b, c):
        if (a, b) == (1, 1):
            return r_tau[c]
        return 1.0

    fusion = {(0, 0): [0], (0, 1): [1], (1, 0): [1], (1, 1): [0, 1]}
    N, F, R = _fill_tables(2, fusion, _per_entry(f_func), r_func)
    return AnyonModel("fibonacci", ["0", "1"], N, np.array([1.0, phi]), F, R,
                      meta={"computational_charge": "1",
                            "chirality": "counterclockwise",
                            "gauge": "real symmetric F"})


def ising_model() -> AnyonModel:
    """The Ising anyon model: charges 0, 1/2 (sigma), 1 (psi).

    Uses the variant with Frobenius-Schur sign +1 for the sigma charge and
    topological twist exp(i*pi/8); the level-2 SU(2) model differs from this
    in the sign of kappa_{1/2}.
    """
    s, p = 1, 2  # sigma, psi indices
    isq2 = 1 / math.sqrt(2.0)

    def f_func(a, b, c, d, e, f):
        if (a, b, c, d) == (s, s, s, s):
            return -isq2 if e == p and f == p else isq2
        if (a, b, c, d) in ((s, p, s, p), (p, s, p, s)):
            return -1.0
        return 1.0

    def r_func(a, b, c):
        if (a, b) == (s, s):
            return np.exp(-1j * np.pi / 8) if c == 0 else np.exp(3j * np.pi / 8)
        if (a, b) in ((s, p), (p, s)):
            return -1.0j
        if (a, b) == (p, p):
            return -1.0
        return 1.0

    fusion = {(0, 0): [0], (0, s): [s], (s, 0): [s], (0, p): [p], (p, 0): [p],
              (s, s): [0, p], (s, p): [s], (p, s): [s], (p, p): [0]}
    N, F, R = _fill_tables(3, fusion, _per_entry(f_func), r_func)
    return AnyonModel("ising", ["0", "1/2", "1"], N,
                      np.array([1.0, math.sqrt(2.0), 1.0]), F, R,
                      meta={"computational_charge": "1/2",
                            "chirality": "counterclockwise",
                            "gauge": "real symmetric F",
                            "frobenius_schur_1/2": 1})


def _spin_label(n: int) -> str:
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


def su2k_model(k: int) -> AnyonModel:
    """Level-``k`` SU(2) anyons; charges are spins ``0, 1/2, ..., k/2``.

    Internally charges are doubled spins ``n = 0..k``.  F-symbols are the
    q-deformed 6j recoupling coefficients at ``q = exp(2*pi*i/(k+2))``,
    which are real orthogonal in this gauge.
    """
    if k < 2:
        raise ModelError("su2_k requires k >= 2")
    m = k + 1
    check_model_size(m)
    # q-numbers [n] = sin(n*pi/(k+2)) / sin(pi/(k+2)) and their factorials.
    s1 = math.sin(math.pi / (k + 2))
    qnum = np.array([math.sin(n * math.pi / (k + 2)) / s1 for n in range(2 * k + 4)])
    qfact = np.ones(2 * k + 4)
    for n in range(1, 2 * k + 4):
        qfact[n] = qfact[n - 1] * qnum[n]

    def delta(a, b, c):
        num = (qfact[(-a + b + c) // 2] * qfact[(a - b + c) // 2]
               * qfact[(a + b - c) // 2])
        return np.sqrt(num / qfact[(a + b + c) // 2 + 1])

    def f_values(idx):
        # The q-6j symbols {a b e; c d f} of every admissible entry at once
        # (doubled-integer spins), by the Racah sum over z.  An admissible
        # index makes all four triangles of the symbol admissible.  The
        # terms are added in increasing z, as one entry at a time adds them.
        a, b, c, d, e, f = idx.T.astype(np.int64)
        t1, t2 = (a + b + e) // 2, (e + c + d) // 2
        t3, t4 = (b + c + f) // 2, (a + f + d) // 2
        s12, s13, s23 = (a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2
        low = np.maximum.reduce([t1, t2, t3, t4])
        terms = np.minimum.reduce([s12, s13, s23]) - low + 1
        total = np.zeros(len(idx))
        for j in range(terms.max(initial=0)):
            at = np.flatnonzero(terms > j)
            z = low[at] + j
            denom = (qfact[z - t1[at]] * qfact[z - t2[at]] * qfact[z - t3[at]]
                     * qfact[z - t4[at]] * qfact[s12[at] - z] * qfact[s13[at] - z]
                     * qfact[s23[at] - z])
            total[at] += np.where(z % 2, -qfact[z + 1], qfact[z + 1]) / denom
        sixj = total * delta(a, b, e) * delta(e, c, d) * delta(c, b, f) * delta(a, f, d)
        sign = np.where((a + b + c + d) // 2 % 2, -1.0, 1.0)
        return sign * np.sqrt(qnum[e + 1] * qnum[f + 1]) * sixj

    q = np.exp(2j * np.pi / (k + 2))

    def r_func(a, b, c):
        return ((-1.0) ** ((c - a - b) // 2)
                * q ** ((c * (c + 2) - a * (a + 2) - b * (b + 2)) / 8.0))

    fusion = {}
    for a in range(m):
        for b in range(m):
            top = min(a + b, 2 * k - a - b)
            fusion[(a, b)] = list(range(abs(a - b), top + 1, 2))
    N, F, R = _fill_tables(m, fusion, f_values, r_func)
    qd = qnum[1:m + 1].copy()
    return AnyonModel("su2_k", [_spin_label(n) for n in range(m)], N, qd, F, R,
                      params={"k": k},
                      meta={"computational_charge": "1/2",
                            "chirality": "counterclockwise",
                            "gauge": "real orthogonal q-6j",
                            "frobenius_schur_1/2": -1})


_BUILTIN_NAMES = ("fibonacci", "ising", "su2_k")


def _builtin_key(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    return "su2_k" if key == "su2k" else key


def is_builtin_name(name: str) -> bool:
    """Whether :func:`load_builtin` accepts ``name``."""
    return _builtin_key(name) in _BUILTIN_NAMES


def load_builtin(name: str, k: int | None = None) -> AnyonModel:
    """Construct a built-in model by name.

    ``k`` is required for ``su2_k`` (and must be between 2 and
    ``MAX_CHARGES - 1``); it is rejected for the other models.
    """
    key = _builtin_key(name)
    if key not in _BUILTIN_NAMES:
        raise ModelError(f"unknown model {name!r}; built-ins: {', '.join(_BUILTIN_NAMES)}")
    if key == "su2_k":
        if k is None:
            raise ModelError("su2_k requires the level parameter k")
        try:
            level = int(k)
            if level != k:  # 2.5 or "3", which int() truncates or parses
                raise ValueError
        except (OverflowError, TypeError, ValueError):  # inf, a list, NaN
            raise ModelError(f"su2_k level {k!r} is not an integer") from None
        return su2k_model(level)
    if k is not None:
        raise ModelError(f"model {name!r} does not take a level parameter")
    return fibonacci_model() if key == "fibonacci" else ising_model()
