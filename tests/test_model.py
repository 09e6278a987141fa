"""Anyon model data: built-ins, algebraic identities, consistency checks."""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from anyonbraid import (AnyonModel, Charge, ModelError, UnknownChargeError,
                        load_builtin)
from anyonbraid import model as model_module
from anyonbraid.model import (MAX_CHARGES, _admissible_blocks, _block_residuals, _blocks,
                              _f_store, _pentagon_residual, _pentagon_trees,
                              check_model_size, fibonacci_model)

import consistency_oracle
import pentagon_oracle
import racah_oracle
from consistency_oracle import admissible_f, kappa

PHI = (1 + math.sqrt(5)) / 2


def stored(N, F):
    """The row index and row store of a dense F, as the residual checks
    read them."""
    return _f_store(N, F)[:2]


def zn_fusion(n):
    """Fusion rules of the abelian Z_n anyons: a x b = a + b mod n."""
    a, b = np.indices((n, n))
    N = np.zeros((n, n, n), dtype=np.int8)
    N[a, b, (a + b) % n] = 1
    return N


def zn_model(n):
    """Z_n anyons with F = 1 on the admissible set and
    R^{ab} = exp(2 pi i ab / n)."""
    N = zn_fusion(n)
    a, b = np.indices((n, n))
    R = N * np.exp(2j * np.pi * a * b / n)[:, :, None]
    return AnyonModel(f"z{n}", [str(x) for x in range(n)], N, np.ones(n),
                      admissible_f(N).astype(complex), R)


def product_model(first, second):
    """The product of two models: the charge (x, y) is numbered
    x * m + y, m being the second model's charge count, and fusion,
    quantum dimensions, F and R are the tensor products of theirs."""
    labels = [f"{x}x{y}" for x in first.labels for y in second.labels]
    return AnyonModel(f"{first.name}x{second.name}", labels,
                      np.kron(first.N, second.N), np.kron(first.qd, second.qd),
                      np.kron(first.F, second.F), np.kron(first.R, second.R))


def model_of(name, k):
    """A built-in model, Z_k, or one of two product models by name."""
    if name == "z_n":
        return zn_model(k)
    if name == "fibonacci x ising":
        return product_model(load_builtin("fibonacci"), load_builtin("ising"))
    if name == "fibonacci x z3":
        # non-abelian, with charges that are not their own duals
        return product_model(load_builtin("fibonacci"), zn_model(3))
    return load_builtin(name, k=k)


@pytest.fixture(scope="module")
def all_models():
    return [load_builtin("fibonacci"), load_builtin("ising"),
            load_builtin("su2_k", k=2), load_builtin("su2_k", k=3),
            load_builtin("su2_k", k=5)]


class TestLoadBuiltin:
    def test_ising_quantum_dimensions(self, ising):
        assert ising.qd[ising.charge("0").index] == pytest.approx(1.0)
        assert ising.qd[ising.charge("1").index] == pytest.approx(1.0)
        assert ising.qd[ising.charge("1/2").index] == pytest.approx(math.sqrt(2))

    def test_fibonacci_golden_ratio(self, fibonacci):
        assert fibonacci.qd[1] == pytest.approx(PHI)

    def test_su2_3_half_spin_dimension(self, su2_3):
        assert su2_3.qd[su2_3.charge("1/2").index] == pytest.approx(2 * math.cos(math.pi / 5))

    def test_su2_charges(self):
        m = load_builtin("su2_k", k=4)
        assert m.labels == ("0", "1/2", "1", "3/2", "2")

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            load_builtin("heisenberg")

    def test_su2_level_out_of_range(self):
        with pytest.raises(ModelError):
            load_builtin("su2_k", k=1)
        with pytest.raises(ModelError):
            load_builtin("su2_k")

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, "x", [3],
                                   2.5, np.float64(3.5), "3"])
    def test_su2_level_not_an_integer(self, k):
        # 2.5 would build k=2 and "3" would build k=3 if int() decided
        with pytest.raises(ModelError, match="is not an integer"):
            load_builtin("su2_k", k=k)

    @pytest.mark.parametrize("k", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_su2_integral_level(self, k):
        model = load_builtin("su2_k", k=k)
        assert model.params == {"k": 3} and type(model.params["k"]) is int

    @pytest.mark.parametrize("k", range(2, 12))
    def test_su2_f_equals_scalar_racah_sum(self, k):
        # every admissible entry summed at once, bit for bit the scalar sum
        model = load_builtin("su2_k", k=k)
        oracle = racah_oracle.su2k_f_table(k, model.N)
        assert model.F.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("name", ["fibonacci", "ising"])
    def test_f_equals_defined_entries(self, name):
        model = load_builtin(name)
        assert model.F.tobytes() == racah_oracle.builtin_f_table(name, model.N).tobytes()

    def test_oversized_level_refused_before_allocating(self):
        # 61 charges: refused before any table of that size is built
        with pytest.raises(ModelError, match="61 charges exceed the limit of 16 charges"):
            load_builtin("su2_k", k=60)

    def test_size_limit(self):
        check_model_size(MAX_CHARGES)
        with pytest.raises(ModelError, match=f"{MAX_CHARGES + 1} charges"):
            check_model_size(MAX_CHARGES + 1)

    def test_level_rejected_elsewhere(self):
        with pytest.raises(ModelError):
            load_builtin("ising", k=3)


class TestCharges:
    def test_coercion_roundtrip(self, ising):
        sigma = ising.charge("1/2")
        assert ising.charge(sigma) is sigma
        assert ising.charge(1) == sigma
        assert str(sigma) == "1/2"

    def test_unknown_charge(self, ising):
        with pytest.raises(UnknownChargeError):
            ising.charge("2")
        with pytest.raises(UnknownChargeError):
            ising.charge(7)
        with pytest.raises(UnknownChargeError):
            ising.charge(Charge(0, "tau"))

    def test_vacuum_is_first(self, all_models):
        for m in all_models:
            assert m.vacuum.index == 0
            assert m.dual(m.vacuum) == m.vacuum

    def test_dual_involution(self, all_models):
        for m in all_models:
            for c in m.charges:
                assert m.dual(m.dual(c)) == c
                # vacuum occurs exactly once among fusion products with the dual
                partners = [x for x in m.charges if m.vacuum in m.fuse(c, x)]
                assert partners == [m.dual(c)]


class TestFuse:
    def test_fibonacci_tau_tau(self, fibonacci):
        labels = {c.label for c in fibonacci.fuse("1", "1")}
        assert labels == {"0", "1"}
        # consistent with the quantum-dimension identity d_1^2 = 1 + d_1
        assert PHI ** 2 == pytest.approx(1 + PHI)

    def test_ising_sigma_sigma(self, ising):
        labels = {c.label for c in ising.fuse("1/2", "1/2")}
        assert labels == {"0", "1"}
        assert math.sqrt(2) ** 2 == pytest.approx(2.0)

    def test_vacuum_is_identity(self, all_models):
        for m in all_models:
            for c in m.charges:
                assert m.fuse("0", c) == (c,)
                assert m.fuse(c, "0") == (c,)

    def test_unknown_charge_rejected(self, fibonacci):
        with pytest.raises(UnknownChargeError):
            fibonacci.fuse("1", "tau")


class TestFSymbols:
    def test_fibonacci_f00(self, fibonacci):
        assert fibonacci.F[1, 1, 1, 1, 0, 0] == pytest.approx(1 / PHI)

    def test_column_zero_is_qdim_ratio(self, all_models):
        # |[F_a^{a abar a}]_{e0}|^2 = d_e / d_a^2
        for m in all_models:
            for a in range(m.num_charges):
                abar = m.dual(a).index
                for e in np.flatnonzero(m.N[a, abar]):
                    got = abs(m.F[a, abar, a, a, e, 0]) ** 2
                    want = m.qd[e] / m.qd[a] ** 2
                    assert got == pytest.approx(want, abs=1e-12)

    def test_vacuum_f_is_trivial(self, all_models):
        for m in all_models:
            for b, c, d in np.argwhere(m.N):
                assert m.F[0, b, c, d, b, d] == pytest.approx(1.0)

    def test_inadmissible_is_zero(self, fibonacci):
        assert fibonacci.F[1, 1, 1, 0, 0, 0] == 0
        assert fibonacci.F[0, 0, 0, 0, 1, 0] == 0

    def test_f_matrices_unitary(self, all_models):
        for m in all_models:
            n = m.num_charges
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        for d in range(n):
                            es = [e for e in range(n)
                                  if m.N[a, b, e] and m.N[e, c, d]]
                            fsym = [f for f in range(n)
                                    if m.N[b, c, f] and m.N[a, f, d]]
                            if not es:
                                continue
                            block = m.F[a, b, c, d][np.ix_(es, fsym)]
                            assert block.shape[0] == block.shape[1]
                            assert np.allclose(block @ block.conj().T,
                                               np.eye(len(es)), atol=1e-10)


class TestFStore:
    """F is kept as its admissible rows; ``f_rows`` reads them and ``F`` is
    a dense copy built on first read."""

    def test_dense_view_is_built_once_and_read_only(self, su2_3):
        model = load_builtin("su2_k", k=3)
        assert "F" not in vars(model)
        dense = model.F
        assert model.F is dense
        assert not dense.flags.writeable
        assert dense.tobytes() == su2_3.F.tobytes()

    def test_rows_are_slices_of_the_dense_table(self, all_models):
        for m in all_models:
            n = m.num_charges
            every = np.arange(n)
            assert np.array_equal(m.f_rows(...), m.F)
            for a, b in np.ndindex(n, n):
                assert np.array_equal(m.f_rows(slice(None), a, b), m.F[:, a, b])
            assert np.array_equal(m.f_rows(every, 1, 1, every, 0), m.F[every, 1, 1, every, 0])

    def test_store_holds_only_admissible_rows(self):
        model = load_builtin("su2_k", k=11)
        rows, _ = _admissible_blocks(model.N)
        assert model._f_store.shape == (12_377, 12)  # 12,376 rows and the zero row
        assert int(rows.sum()) == 12_376
        assert not model._f_store[-1].any()
        assert model._f_row.dtype == np.int32 and model._f_row.shape == (12,) * 5

    def test_dense_input_is_compressed(self, fibonacci):
        F = fibonacci.F.copy()
        F[0, 0, 0, 0, 1, 0] = 0.25  # off the admissible set
        model = AnyonModel("fib-off", fibonacci.labels, fibonacci.N, fibonacci.qd,
                           F, fibonacci.R)
        assert model.F.tobytes() == fibonacci.F.tobytes()
        unitarity = fibonacci.verify_consistency().max_unitarity_residual
        assert model.verify_consistency().max_unitarity_residual == unitarity + 0.25

    def test_row_store_input_is_kept(self, fibonacci):
        model = AnyonModel("fib-rows", fibonacci.labels, fibonacci.N, fibonacci.qd,
                           fibonacci._f_store, fibonacci.R)
        assert model.F.tobytes() == fibonacci.F.tobytes()
        with pytest.raises(ModelError, match="shape"):
            AnyonModel("fib-rows", fibonacci.labels, fibonacci.N, fibonacci.qd,
                       fibonacci._f_store[:-1], fibonacci.R)


class TestRSymbols:
    def test_phases(self, all_models):
        for m in all_models:
            for a, b, c in np.argwhere(m.N):
                assert abs(m.R[a, b, c]) == pytest.approx(1.0)

    def test_vacuum_braiding_trivial(self, all_models):
        for m in all_models:
            for a in range(m.num_charges):
                assert m.R[0, a, a] == pytest.approx(1.0)
                assert m.R[a, 0, a] == pytest.approx(1.0)

    def test_fibonacci_convention(self, fibonacci):
        assert fibonacci.R[1, 1, 0] == pytest.approx(np.exp(-4j * np.pi / 5))
        assert fibonacci.R[1, 1, 1] == pytest.approx(np.exp(3j * np.pi / 5))

    def test_twists(self, ising, fibonacci, su2_2):
        assert ising.twist("1/2") == pytest.approx(np.exp(1j * np.pi / 8))
        assert fibonacci.twist("1") == pytest.approx(np.exp(4j * np.pi / 5))
        assert su2_2.twist("1/2") == pytest.approx(np.exp(3j * np.pi / 8))


class TestKappa:
    def test_fibonacci_tau(self, fibonacci):
        assert kappa(fibonacci, "1") == pytest.approx(PHI * (1 / PHI))
        assert kappa(fibonacci, "1") == pytest.approx(1.0)

    def test_vacuum(self, all_models):
        for m in all_models:
            assert kappa(m, "0") == pytest.approx(1.0)

    def test_ising_and_su2_2_differ_in_sign(self, ising, su2_2):
        assert kappa(ising, "1/2") == pytest.approx(1.0)
        assert kappa(su2_2, "1/2") == pytest.approx(-1.0)

    def test_self_dual_kappa_is_sign(self, all_models):
        for m in all_models:
            for c in m.charges:
                if m.dual(c) == c:
                    assert kappa(m, c).imag == pytest.approx(0.0, abs=1e-12)
                    assert abs(kappa(m, c).real) == pytest.approx(1.0)


class TestIsAbelian:
    def test_equivalent_to_single_channel_fusion(self, all_models):
        # a charge is Abelian, d_c = 1, exactly when fusing it with any
        # charge has a single channel
        for m in all_models:
            for c in m.charges:
                single = all(len(m.fuse(c, x)) == 1 for x in m.charges)
                assert (abs(m.qd[c.index] - 1.0) < 1e-9) == single


class TestVerifyConsistency:
    @pytest.mark.parametrize("name,k", [("fibonacci", None), ("ising", None),
                                        ("su2_k", 3), ("su2_k", 5)])
    def test_builtins_pass(self, name, k):
        report = load_builtin(name, k=k).verify_consistency(1e-10)
        assert report.passed
        assert report.max_pentagon_residual < 1e-10
        assert report.max_hexagon_residual < 1e-10
        assert report.max_unitarity_residual < 1e-10
        assert report.qdim_residual < 1e-10

    def test_perturbed_f_detected(self, fibonacci):
        bad_f = fibonacci.F.copy()
        bad_f[1, 1, 1, 1, 0, 0] += 1e-3
        bad = AnyonModel("fib-broken", fibonacci.labels, fibonacci.N,
                         fibonacci.qd, bad_f, fibonacci.R)
        report = bad.verify_consistency(1e-10)
        assert not report.passed
        assert report.max_pentagon_residual > 1e-5
        assert report.max_unitarity_residual > 1e-5

    def test_perturbed_r_detected(self, ising):
        bad_r = ising.R.copy()
        bad_r[1, 1, 0] *= np.exp(1e-3j)
        bad = AnyonModel("ising-broken", ising.labels, ising.N, ising.qd,
                         ising.F, bad_r)
        report = bad.verify_consistency(1e-10)
        assert not report.passed
        assert report.max_hexagon_residual > 1e-5

    def test_perturbed_qdim_detected(self, fibonacci):
        bad = AnyonModel("fib-d", fibonacci.labels, fibonacci.N,
                         np.array([1.0, PHI + 1e-3]), fibonacci.F, fibonacci.R)
        assert bad.verify_consistency(1e-10).qdim_residual > 1e-5

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("table", ["qd", "F", "R"])
    def test_non_finite_data_rejected(self, fibonacci, table, value):
        data = {"qd": fibonacci.qd.copy(), "F": fibonacci.F.copy(), "R": fibonacci.R.copy()}
        data[table][(1,) * data[table].ndim] = value
        with pytest.raises(ModelError, match="finite"):
            AnyonModel("fib-bad", fibonacci.labels, fibonacci.N,
                       data["qd"], data["F"], data["R"])

    @pytest.mark.parametrize("chunk", [1, 3, 65536])
    def test_residual_maxima_propagate_nan(self, fibonacci, monkeypatch, chunk):
        # Python's max(worst, nan) keeps worst: a NaN must not read as 0
        monkeypatch.setattr(model_module, "_BLOCK", chunk)
        F = fibonacci._f_store.copy()
        F[fibonacci._f_row[1, 1, 1, 1, 1], 1] = math.nan  # entry (1, 1, 1, 1, 1, 1)
        for workers in (1, 3):
            monkeypatch.setattr(model_module, "_cpu_count", lambda: workers)
            assert math.isnan(_pentagon_residual(fibonacci.N, fibonacci._f_row, F))
            hexagon, unitarity = _block_residuals(fibonacci.N, fibonacci._f_row, F, fibonacci.R)
            assert math.isnan(hexagon)
            assert math.isnan(unitarity)

    def test_nan_in_a_later_block_wins(self, fibonacci, monkeypatch):
        # Three workers of one key per block, each holding its first block
        # until all three have one: the NaN's blocks come after those, so
        # no worker, the caller included, meets it first.
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 3)
        monkeypatch.setattr(model_module, "_BLOCK", 3)
        firsts = []

        def hold_first_blocks(residual):
            first, barrier = {}, threading.Barrier(3, timeout=10)
            firsts.append(first)

            def spy(block):
                value = residual(block)
                if threading.get_ident() not in first:
                    first[threading.get_ident()] = value
                    barrier.wait()
                return value
            return spy

        spy_on_blocks(monkeypatch, hold_first_blocks)
        F = fibonacci._f_store.copy()
        F[fibonacci._f_row[1, 1, 1, 1, 1], 1] = math.nan
        assert math.isnan(_pentagon_residual(fibonacci.N, fibonacci._f_row, F))
        assert all(math.isnan(x) for x in
                   _block_residuals(fibonacci.N, fibonacci._f_row, F, fibonacci.R))
        assert [len(first) for first in firsts] == [3, 3]
        assert threading.get_ident() in firsts[0]
        assert not any(np.isnan(v).any() for first in firsts for v in first.values())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("check", ["_pentagon_residual", "_hexagon_residual",
                                       "_unitarity_residual", "_qdim_residual"])
    def test_non_finite_residual_never_passes(self, fibonacci, monkeypatch, check, value):
        if check in ("_hexagon_residual", "_unitarity_residual"):
            # both come from one block walk
            pair = (value, 0.0) if check == "_hexagon_residual" else (0.0, value)
            monkeypatch.setattr(model_module, "_block_residuals", lambda *tables: pair)
        else:
            monkeypatch.setattr(model_module, check, lambda *tables: value)
        report = fibonacci.verify_consistency(math.inf)
        assert not report.passed

    @pytest.mark.parametrize("at", [(0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0)],
                             ids=["row-off-block", "empty-matrix"])
    def test_nonzero_inadmissible_entry_detected(self, fibonacci, at):
        # off the admissible blocks F must vanish, in a matrix with a block
        # and in one with none
        F = fibonacci.F.copy()
        F[at] = 1e-3
        bad = AnyonModel("fib-off", fibonacci.labels, fibonacci.N, fibonacci.qd,
                         F, fibonacci.R)
        report = bad.verify_consistency(1e-10)
        assert not report.passed
        assert report.max_unitarity_residual >= 1e-3

    def test_qdim_fusion_identity(self, all_models):
        for m in all_models:
            for a in range(m.num_charges):
                for b in range(m.num_charges):
                    total = sum(m.qd[c] for c in np.flatnonzero(m.N[a, b]))
                    assert m.qd[a] * m.qd[b] == pytest.approx(total, abs=1e-10)


def spy_on_blocks(monkeypatch, wrap):
    """Make every block walk call ``wrap(residual)`` in place of its
    per-block function ``residual``."""
    walk = model_module._walk
    monkeypatch.setattr(model_module, "_walk",
                        lambda starts, dims, residual, *cpus: walk(starts, dims, wrap(residual),
                                                                   *cpus))


def count_threads(monkeypatch):
    """A list that gains an entry for every thread constructed from now on."""
    started = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


class TestWalkWorkers:
    """The block walks share their blocks among one worker per CPU of the
    process, but no more than their equations fill shares of a quarter
    block; the CPU count is patched where it is read."""

    @pytest.mark.parametrize("name,k", [("fibonacci", None), ("ising", None)]
                             + [("su2_k", k) for k in range(2, 10)])
    def test_residual_bits_do_not_depend_on_worker_count(self, monkeypatch, name, k):
        model = load_builtin(name, k=k)
        pentagon = consistency_oracle.dense_pentagon_residual(model.N, model.F)
        hexagon, unitarity = consistency_oracle.dense_block_residuals(model.N, model.F, model.R)
        want = [float(x).hex() for x in (pentagon, hexagon, unitarity)]
        # blocks small enough that both walks start every thread they may
        chunk = 16 if model.num_charges < 7 else 1024
        started = count_threads(monkeypatch)
        for workers in (1, 2, 3):
            monkeypatch.setattr(model_module, "_cpu_count", lambda: workers)
            report = model.verify_consistency()
            got = (report.max_pentagon_residual, report.max_hexagon_residual,
                   report.max_unitarity_residual)
            assert [x.hex() for x in got] == want, workers
            started.clear()
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "_BLOCK", chunk)
                got = (_pentagon_residual(model.N, model._f_row, model._f_store),
                       *_block_residuals(model.N, model._f_row, model._f_store, model.R))
            assert [x.hex() for x in got] == want, workers
            assert len(started) == 2 * (workers - 1)

    def test_small_walks_start_no_thread(self, monkeypatch, fibonacci):
        # Fibonacci's walks hold 50 and 15 equations, far below a share
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 8)
        started = count_threads(monkeypatch)
        assert fibonacci.verify_consistency().passed
        assert started == []

    def test_many_workers_under_rapid_switching(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the
        # interpreter allows: every block is walked once, and the residual
        # keeps the bits of a lone worker
        model = load_builtin("su2_k", k=5)
        monkeypatch.setattr(model_module, "_BLOCK", 64)
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 1)
        want = _pentagon_residual(model.N, model._f_row, model._f_store)
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 8)
        firsts = []

        def record(residual):
            def spy(block):
                firsts.append(int(block[0, 0]))
                return residual(block)
            return spy

        spy_on_blocks(monkeypatch, record)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _pentagon_residual(model.N, model._f_row, model._f_store)
        finally:
            sys.setswitchinterval(interval)
        assert got.hex() == want.hex()
        _, starts, dims = _pentagon_trees(model.N)
        blocks = _blocks(starts, dims, 64 // 8)
        assert sorted(firsts) == sorted(int(block[0, 0]) for block in blocks)

    def test_no_thread_outlives_a_verify(self, monkeypatch):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 3)
        model = load_builtin("su2_k", k=7)
        before = threading.active_count()
        assert model.verify_consistency().passed
        assert threading.active_count() == before

    def test_error_in_a_block_stops_every_worker(self, monkeypatch):
        # The hexagon/unitarity walk runs first, beside the pentagon's
        # set-up, and the pentagon walk after it.  An error in the third
        # block of either walk stops that walk early, starts no later walk
        # and leaves no thread behind.  Small blocks give both walks more
        # than one worker and a dozen blocks or more.
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 3)
        monkeypatch.setattr(model_module, "_BLOCK", 1024)
        model = load_builtin("su2_k", k=7)
        lock, walks, fail = threading.Lock(), [], [None, None]  # walk, block

        def count(residual):
            name, calls = residual.__qualname__.split(".")[0], []
            walks.append((name, calls))

            def spy(block):
                with lock:
                    calls.append(block)
                    n = len(calls)
                if [name, n] == fail:
                    raise MemoryError("no room for block 3")
                return residual(block)
            return spy

        spy_on_blocks(monkeypatch, count)
        model.verify_consistency()
        order = [name for name, _ in walks]
        assert order == ["_block_residuals", "_pentagon_setup"]
        totals = [len(calls) for _, calls in walks]
        for i, failing in enumerate(order):
            walks.clear()
            fail[:] = [failing, 3]
            before = threading.active_count()
            with pytest.raises(MemoryError, match="block 3"):
                model.verify_consistency()
            assert threading.active_count() == before
            assert [name for name, _ in walks] == order[:i + 1]
            assert 3 <= len(walks[-1][1]) < totals[i]

    def test_error_in_the_pentagon_setup_joins_every_thread(self, monkeypatch):
        # the caller builds the set-up while the hexagon/unitarity walk
        # runs on a thread; the set-up's error is raised once that thread
        # has been joined, and the pentagon is never walked
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        model = load_builtin("su2_k", k=7)
        walks = []

        def no_room(N):
            raise MemoryError("no room for the trees")

        def record(residual):
            walks.append((residual.__qualname__.split(".")[0], threading.current_thread()))
            return residual

        monkeypatch.setattr(model_module, "_pentagon_trees", no_room)
        spy_on_blocks(monkeypatch, record)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room for the trees"):
            model.verify_consistency()
        assert threading.active_count() == before
        assert [name for name, _ in walks] == ["_block_residuals"]
        assert walks[0][1] is not threading.main_thread()


def _dense_residuals(model, F):
    """The four residuals of ``model`` as the dense oracles read them from ``F``."""
    pentagon = consistency_oracle.dense_pentagon_residual(model.N, F)
    hexagon, unitarity = consistency_oracle.dense_block_residuals(model.N, F, model.R)
    vacuum = consistency_oracle.dense_vacuum_probability_residual(model, F)
    return pentagon, hexagon, unitarity, vacuum


class TestResidualOracle:
    """Every residual read from F's row store is bit for bit the dense
    formulation's in ``tests/consistency_oracle.py``, as built and with
    seeded noise on the admissible entries of F and on R."""

    @pytest.mark.parametrize("name,k,noise",
                             [(name, k, None) for name, k in
                              [("fibonacci", None), ("ising", None)]
                              + [("su2_k", k) for k in range(2, MAX_CHARGES)]
                              + [("z_n", n) for n in (1, 2, 5, 8, MAX_CHARGES)]
                              + [("fibonacci x z3", None)]]
                             + [(name, k, noise) for noise in ("real", "complex")
                                for name, k in [("fibonacci", None), ("ising", None)]
                                + [("su2_k", k) for k in range(2, 12)]
                                + [("fibonacci x z3", None)]])
    def test_store_matches_dense_residuals(self, name, k, noise):
        model = model_of(name, k)
        if noise:
            rng = np.random.default_rng([19, k or 0, len(name), noise == "complex"])
            F = model.F.copy()
            admissible = admissible_f(model.N)
            shape = int(admissible.sum())
            F[admissible] += rng.normal(size=shape) * 1e-6
            if noise == "complex":
                F[admissible] += 1j * rng.normal(size=shape) * 1e-6
            R = model.R * np.exp(1e-6j * rng.normal(size=model.R.shape))
            model = AnyonModel(model.name, model.labels, model.N, model.qd, F, R)
        report = model.verify_consistency()
        got = (report.max_pentagon_residual, report.max_hexagon_residual,
               report.max_unitarity_residual, model.vacuum_probability_residual())
        want = _dense_residuals(model, model.F)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
        if noise:
            assert report.max_pentagon_residual > 0.0


class TestAdmissibleBlocks:
    """The row and column masks of the F-matrices against the four-factor
    mask of ``tests/consistency_oracle.py``."""

    @pytest.mark.parametrize("name,k", [("fibonacci", None), ("ising", None)]
                             + [("su2_k", k) for k in range(2, MAX_CHARGES)]
                             + [("z_n", n) for n in (1, 2, 5, 8, MAX_CHARGES)])
    def test_product_is_the_admissible_set(self, name, k):
        N = zn_fusion(k) if name == "z_n" else load_builtin(name, k=k).N
        rows, columns = _admissible_blocks(N)
        assert np.array_equal(rows[..., None] & columns[..., None, :], admissible_f(N))
        # each matrix's D rows and D columns sit at the same positions
        assert np.array_equal(np.argwhere(rows)[:, :4], np.argwhere(columns)[:, :4])


class TestPentagonTrees:
    """The trees read off one sorted enumeration against the join-and-sort
    builder of ``tests/consistency_oracle.py``, row for row."""

    @pytest.mark.parametrize("name,k", [("fibonacci", None), ("ising", None)]
                             + [("su2_k", k) for k in range(2, MAX_CHARGES)]
                             + [("z_n", n) for n in (1, 2, 5, 8, MAX_CHARGES)]
                             + [("fibonacci x ising", None)])
    def test_same_trees_and_runs_as_join(self, name, k):
        N = zn_fusion(k) if name == "z_n" else model_of(name, k).N
        labels, starts, dims = _pentagon_trees(N)
        left, right = consistency_oracle.tree_rows(N)
        assert labels.dtype == np.uint8 and labels.flags.c_contiguous
        assert np.array_equal(labels[:7].T, left)                        # a b c d e f g
        assert np.array_equal(labels[[0, 1, 2, 3, 4, 7, 8]].T, right)    # a b c d e l k
        want_starts, want_dims = consistency_oracle.runs(left[:, :5])
        assert np.array_equal(starts, want_starts)
        assert np.array_equal(dims, want_dims)


class TestPentagonStreaming:
    """The library's trees, walked by its own runs, check exactly the
    equations of the tuple-table oracle in ``tests/pentagon_oracle.py``,
    with the same arithmetic."""

    @pytest.mark.parametrize("name,k", [("fibonacci", None), ("ising", None)]
                             + [("su2_k", k) for k in range(2, 9)]
                             + [("z_n", n) for n in (1, 2, 5, 8, MAX_CHARGES)])
    def test_same_equations_as_tuple_table(self, name, k):
        N = zn_fusion(k) if name == "z_n" else load_builtin(name, k=k).N
        labels, starts, dims = _pentagon_trees(N)
        pairs = []
        # small blocks, so most models are walked in several
        for trees in _blocks(starts, dims, 500):
            G, D = trees.shape
            assert G * D * D <= max(500, D * D)
            il = np.broadcast_to(trees[:, :, None], (G, D, D)).ravel()
            ir = np.broadcast_to(trees[:, None, :], (G, D, D)).ravel()
            pairs.append(np.column_stack([labels[:, il].T, labels[:, ir].T]))
        rows = np.concatenate(pairs)
        assert np.array_equal(rows[:, :5], rows[:, 9:14])  # same outer labels
        got = rows[:, [0, 1, 5, 2, 6, 3, 4, 16, 17]]  # a b f c g d e l k
        want = pentagon_oracle.pentagon_tuples(N)

        def keys(t):  # one sorted integer per tuple; repeats stay visible
            return np.sort(np.ravel_multi_index(t.T, (N.shape[0],) * 9))

        assert np.array_equal(keys(got), keys(want))

    @given(spec=st.sampled_from([("fibonacci", None), ("ising", None),
                                 ("su2_k", 3), ("su2_k", 4)]),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-9, 1e-1),
           imaginary=st.booleans(),
           chunk=st.integers(1, 3000))
    def test_perturbed_residual_matches_oracle(self, spec, seed, scale, imaginary, chunk):
        model = load_builtin(*spec)
        rng = np.random.default_rng(seed)
        admissible = admissible_f(model.N)
        F = model.F.copy()
        noise = rng.normal(size=int(admissible.sum())) * scale
        if imaginary:
            noise = noise + 1j * rng.normal(size=noise.size) * scale
        F[admissible] += noise
        want = pentagon_oracle.pentagon_residual(model.N, F)
        assert want > 0.0
        with mock.patch.object(model_module, "_BLOCK", chunk):
            assert _pentagon_residual(model.N, *stored(model.N, F)) == want


class TestDenseOracles:
    """The hexagon and unitarity checks against their dense formulations in
    ``tests/consistency_oracle.py``: the hexagon bit for bit, unitarity
    within 1e-15, whose block products may round differently in the last
    place."""

    @pytest.mark.parametrize("name,k", [("fibonacci", None), ("ising", None)]
                             + [("su2_k", k) for k in (2, 3, 5, 7)]
                             + [("z_n", n) for n in (1, 2, 5, 8)])
    def test_builtin_residuals(self, name, k):
        model = zn_model(k) if name == "z_n" else load_builtin(name, k=k)
        N, F, R = model.N, model.F, model.R
        hexagon, unitarity = _block_residuals(N, model._f_row, model._f_store, R)
        assert hexagon == consistency_oracle.hexagon_residual(N, F, R)
        assert unitarity == pytest.approx(
            consistency_oracle.unitarity_residual(N, F), rel=0, abs=1e-15)

    @given(spec=st.sampled_from([("fibonacci", None), ("ising", None),
                                 ("su2_k", 3), ("su2_k", 4)]),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-9, 1e-1),
           imaginary=st.booleans())
    def test_perturbed_residuals(self, spec, seed, scale, imaginary):
        model = load_builtin(*spec)
        rng = np.random.default_rng(seed)
        admissible = admissible_f(model.N)
        F = model.F.copy()
        noise = rng.normal(size=int(admissible.sum())) * scale
        if imaginary:
            noise = noise + 1j * rng.normal(size=noise.size) * scale
        F[admissible] += noise
        R = model.R * np.exp(1j * scale * rng.normal(size=model.R.shape))
        hexagon, unitarity = _block_residuals(model.N, *stored(model.N, F), R)
        want = consistency_oracle.hexagon_residual(model.N, F, R)
        assert want > 0.0
        assert hexagon == want
        want = consistency_oracle.unitarity_residual(model.N, F)
        assert want > 0.0
        assert unitarity == pytest.approx(want, rel=0, abs=1e-15)


class TestStructuralValidation:
    def test_noncommutative_fusion_rejected(self, fibonacci):
        bad_n = fibonacci.N.copy()
        bad_n[0, 1, 0] = 1
        with pytest.raises(ModelError):
            AnyonModel("bad", fibonacci.labels, bad_n, fibonacci.qd,
                       fibonacci.F, fibonacci.R)

    def test_missing_dual_rejected(self, fibonacci):
        bad_n = fibonacci.N.copy()
        bad_n[1, 1, 0] = 0
        with pytest.raises(ModelError):
            AnyonModel("bad", fibonacci.labels, bad_n, fibonacci.qd,
                       fibonacci.F, fibonacci.R)

    def test_wrong_shapes_rejected_cleanly(self, fibonacci):
        with pytest.raises(ModelError, match="shape"):
            AnyonModel("bad", fibonacci.labels, np.zeros((2, 2)), fibonacci.qd,
                       fibonacci.F, fibonacci.R)
        with pytest.raises(ModelError, match="shape"):
            AnyonModel("bad", fibonacci.labels, fibonacci.N, fibonacci.qd,
                       np.zeros((2, 2, 2)), fibonacci.R)


# ---------------------------------------------------------------------------
# Solver oracles: derive the Fibonacci data from the consistency equations
# alone and compare against the shipped tables.
# ---------------------------------------------------------------------------


def _fibonacci_candidate(theta):
    """Fibonacci-fusion model whose only free F-matrix is the real symmetric
    reflection [[cos t, sin t], [sin t, -cos t]]."""
    base = fibonacci_model()
    F = base.F.copy()
    a, b = math.cos(theta), math.sin(theta)
    F[1, 1, 1, 1] = 0.0
    F[1, 1, 1, 1, 0, 0] = a
    F[1, 1, 1, 1, 0, 1] = b
    F[1, 1, 1, 1, 1, 0] = b
    F[1, 1, 1, 1, 1, 1] = -a
    return base.N, F


class TestPentagonSolverOracle:
    def test_unique_unitary_solution_is_inverse_golden_ratio(self):
        def residual(theta):
            N, F = _fibonacci_candidate(theta)
            return _pentagon_residual(N, *stored(N, F))

        grid = np.linspace(0.05, math.pi / 2 - 0.05, 400)
        values = [residual(t) for t in grid]
        best = grid[int(np.argmin(values))]
        opt = minimize_scalar(residual, bracket=(best - 0.01, best, best + 0.01),
                              method="brent", options={"xtol": 1e-14})
        assert opt.fun < 1e-10
        assert math.cos(opt.x) == pytest.approx(1 / PHI, abs=1e-8)

    def test_matches_shipped_table(self, fibonacci):
        assert fibonacci.F[1, 1, 1, 1, 0, 0] == pytest.approx(1 / PHI)


class TestHexagonSolverOracle:
    def test_solutions_are_conjugate_pair(self, fibonacci):
        N, index, F = fibonacci.N, fibonacci._f_row, fibonacci._f_store

        def residual(angles):
            R = fibonacci.R.copy()
            R[1, 1, 0] = np.exp(1j * angles[0])
            R[1, 1, 1] = np.exp(1j * angles[1])
            return _block_residuals(N, index, F, R)[0]

        solutions = []
        grid = np.linspace(-math.pi, math.pi, 24, endpoint=False)
        for a0 in grid:
            for a1 in grid:
                start = np.array([a0, a1])
                if residual(start) > 0.8:
                    continue
                res = minimize(residual, start, method="Nelder-Mead",
                               options={"xatol": 1e-12, "fatol": 1e-14})
                if res.fun < 1e-9:
                    angles = np.mod(res.x + math.pi, 2 * math.pi) - math.pi
                    if not any(np.allclose(angles, s, atol=1e-6) for s in solutions):
                        solutions.append(angles)
        expected = [np.array([-4 * math.pi / 5, 3 * math.pi / 5]),
                    np.array([4 * math.pi / 5, -3 * math.pi / 5])]
        assert len(solutions) == 2
        for want in expected:
            assert any(np.allclose(s, want, atol=1e-6) for s in solutions)
        # shipped convention is the counterclockwise member of the pair
        shipped = np.angle([fibonacci.R[1, 1, 0], fibonacci.R[1, 1, 1]])
        assert np.allclose(shipped, expected[0], atol=1e-12)
