"""Declarative model file format: parsing, validation, rejection."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid import (ModelError, ModelFileError, load_builtin, load_model_file,
                        model_io, parse_model_text)

import model_io_oracle
import racah_oracle
from consistency_oracle import admissible_f

Z3_TEXT = """
# cyclic Z_3 model: all charges Abelian, non-trivial duals
name: z3
charges: 0 1 2
dual: 0:0 1:2 2:1
qdim: 0:1 1:1 2:1

[fusion]
1 1 -> 2
1 2 -> 0
2 2 -> 1

[f]
# all admissible F elements are 1 (default)

[r]
1 1 2  -0.5  0.8660254037844386
2 2 1  -0.5  0.8660254037844386
1 2 0  -0.5 -0.8660254037844386
2 1 0  -0.5 -0.8660254037844386
"""


class TestZ3:
    def test_loads_and_passes_consistency(self):
        model = parse_model_text(Z3_TEXT)
        assert model.name == "z3"
        report = model.verify_consistency(1e-10)
        assert report.passed

    def test_nontrivial_duals(self):
        model = parse_model_text(Z3_TEXT)
        assert model.dual("1").label == "2"
        assert model.dual("2").label == "1"
        assert model.fuse("1", "2") == (model.vacuum,)

    def test_all_abelian(self):
        model = parse_model_text(Z3_TEXT)
        assert np.allclose(model.qd, 1.0, rtol=0, atol=1e-12)

    def test_braiding_phase(self):
        model = parse_model_text(Z3_TEXT)
        omega = np.exp(2j * np.pi / 3)
        assert model.R[1, 1, 2] == pytest.approx(omega, abs=1e-12)


class TestFileRoundTrip:
    def test_fibonacci_from_file(self, tmp_path, fibonacci):
        phi = (1 + math.sqrt(5)) / 2
        sp = 1 / math.sqrt(phi)
        text = "\n".join([
            "name: fib-file",
            "charges: 0 1",
            "dual: 0:0 1:1",
            f"qdim: 0:1 1:{phi!r}",
            "[fusion]",
            "1 1 -> 0 1",
            "[f]",
            f"1 1 1 1 0 0  {1 / phi!r}",
            f"1 1 1 1 0 1  {sp!r}",
            f"1 1 1 1 1 0  {sp!r}",
            f"1 1 1 1 1 1  {-1 / phi!r}",
            "[r]",
            f"1 1 0  {math.cos(-4 * math.pi / 5)!r} {math.sin(-4 * math.pi / 5)!r}",
            f"1 1 1  {math.cos(3 * math.pi / 5)!r} {math.sin(3 * math.pi / 5)!r}",
        ])
        path = tmp_path / "fib.model"
        path.write_text(text)
        model = load_model_file(path)
        assert np.allclose(model.F, fibonacci.F, atol=1e-12)
        assert np.allclose(model.R, fibonacci.R, atol=1e-12)
        assert model.verify_consistency(1e-10).passed


def _su2_k_text(k, rng):
    """su2_k at level ``k`` in the model-file format, every admissible F
    entry listed in seeded order, each after a wrong value for it."""
    model = load_builtin("su2_k", k=k)
    labels = model.labels
    F = racah_oracle.su2k_f_table(k, model.N)

    def rows(table, indices):
        return [" ".join(labels[i] for i in idx)
                + f" {float(table[tuple(idx)].real)!r} {float(table[tuple(idx)].imag)!r}"
                for idx in indices.tolist()]

    lines = [f"name: su2_k{k}-file", "charges: " + " ".join(labels),
             "dual: " + " ".join(f"{x}:{model.dual(x).label}" for x in labels),
             "qdim: " + " ".join(f"{x}:{float(q)!r}" for x, q in zip(labels, model.qd)),
             "[fusion]"]
    lines += [f"{labels[a]} {labels[b]} -> "
              + " ".join(labels[c] for c in np.flatnonzero(model.N[a, b]))
              for a, b in np.ndindex(len(labels), len(labels))]
    entries = rows(F, np.argwhere(admissible_f(model.N)))
    rng.shuffle(entries)
    lines += ["[f]"] + [" ".join(e.split()[:6]) + " 0.5" for e in entries] + entries
    lines += ["[r]"] + rows(model.R, np.argwhere(model.N))
    return "\n".join(lines) + "\n", F, model


class TestStoredF:
    """A model file's F rows go straight into F's row store; its dense view
    is the dense table the entries define, bit for bit."""

    @pytest.mark.parametrize("k", [3, 7, 11])
    def test_parsed_su2_k_dense_view(self, k):
        text, F, builtin = _su2_k_text(k, np.random.default_rng(k))
        model = parse_model_text(text)
        assert model.F.tobytes() == F.tobytes()
        assert model.R.tobytes() == builtin.R.tobytes()
        assert model._f_store.tobytes() == builtin._f_store.tobytes()


class TestRejection:
    def test_missing_header(self):
        with pytest.raises(ModelFileError, match="missing header"):
            parse_model_text("name: x\ncharges: 0\nqdim: 0:1\n")

    def test_unknown_charge_in_table(self):
        bad = Z3_TEXT.replace("1 1 -> 2", "1 1 -> 9")
        with pytest.raises(ModelFileError, match="unknown charge"):
            parse_model_text(bad)

    def test_garbage_line(self):
        with pytest.raises(ModelFileError, match="key: value"):
            parse_model_text("this is not a model file")

    def test_bad_section(self):
        with pytest.raises(ModelFileError, match="unknown section"):
            parse_model_text("name: x\ncharges: 0\ndual: 0:0\nqdim: 0:1\n[bogus]\n")

    def test_inconsistent_model_rejected(self):
        # perturb one R phase; the hexagon residual must reject the file
        bad = Z3_TEXT.replace("1 1 2  -0.5  0.8660254037844386",
                              "1 1 2  -0.51  0.8660254037844386")
        with pytest.raises(ModelFileError, match="consistency"):
            parse_model_text(bad)

    def test_declared_dual_must_match_fusion(self):
        bad = Z3_TEXT.replace("dual: 0:0 1:2 2:1", "dual: 0:0 1:1 2:2")
        with pytest.raises(ModelFileError, match="dual"):
            parse_model_text(bad)

    def test_oversized_model_refused_before_allocating(self):
        # 400 charges: even the boolean mask of admissible F entries would
        # exceed the address space, so only a check that runs first passes
        labels = [f"x{i}" for i in range(400)]
        text = (f"name: big\ncharges: {' '.join(labels)}\n"
                f"dual: {' '.join(f'{x}:{x}' for x in labels)}\n"
                f"qdim: {' '.join(f'{x}:1' for x in labels)}\n")
        with pytest.raises(ModelError, match="400 charges exceed the limit of 16"):
            parse_model_text(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("old,new,match", [
        ("[f]\n", "[f]\n1 1 1 0 2 2  {}\n", "line 14: value"),
        ("1 1 2  -0.5  0.8660254037844386", "1 1 2  -0.5  {}", "line 17: value"),
        ("qdim: 0:1 1:1", "qdim: 0:1 1:{}", "qdim for '1'"),
    ], ids=["f", "r", "qdim"])
    def test_non_finite_value_names_its_place(self, old, new, match, value):
        bad = Z3_TEXT.replace(old, new.format(value), 1)
        with pytest.raises(ModelFileError, match=f"{match}.*not finite"):
            parse_model_text(bad, tolerance=None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model_file(tmp_path / "absent.model")


def _rendered(name, k, seed):
    """The header, F rows and trailer of ``name`` in the model-file format
    as the benchmark writes it: every admissible F and R entry listed with
    ``repr`` floats, ``re im``, the F rows in seeded order."""
    model = load_builtin(name, k=k)
    labels = model.labels

    def rows(table, indices):
        return [" ".join(labels[i] for i in idx)
                + f" {float(table[tuple(idx)].real)!r} {float(table[tuple(idx)].imag)!r}"
                for idx in indices.tolist()]

    head = [f"name: {name}-file", "charges: " + " ".join(labels),
            "dual: " + " ".join(f"{x}:{model.dual(x).label}" for x in labels),
            "qdim: " + " ".join(f"{x}:{float(q)!r}" for x, q in zip(labels, model.qd)),
            "", "[fusion]"]
    head += [f"{labels[a]} {labels[b]} -> "
             + " ".join(labels[c] for c in np.flatnonzero(model.N[a, b]))
             for a in range(len(labels)) for b in range(a, len(labels))]
    f_rows = rows(model.F, np.argwhere(model.F != 0))
    random.Random(seed).shuffle(f_rows)
    tail = ["", "[r]"] + rows(model.R, np.argwhere(model.N != 0))
    return head + ["", "[f]"], f_rows, tail


#: What a mutation of an F or R row writes: labels known and unknown, and
#: numbers that ``float`` reads differently from a plain decimal or not at
#: all (non-ASCII digits, underscores, hex, overflow, non-finite).
_TOKENS = st.sampled_from(
    ["0", "1", "1/2", "3/2", "x", "½", "nan", "-nan", "inf", "-Infinity", "1e400",
     "-1e400", "1e-400", "1_0", "0x10", "١٢", "٣.٥", "0.5", "-0.0", "+1", "#"])


def _mutated(rows, edits, width=6):
    """``rows`` of a table whose entries have ``width`` labels, with each
    edit ``(kind, i, j, token)`` applied to row ``i`` (modulo the row
    count) in turn."""
    rows = list(rows)
    for kind, i, j, token in edits:
        i %= len(rows)
        parts = rows[i].split()
        if kind == "replace" and parts:
            parts[j % len(parts)] = token
        elif kind == "insert":
            parts.insert(j % (len(parts) + 1), token)
        elif kind == "delete" and parts:
            del parts[j % len(parts)]
        elif kind == "drop im" and len(parts) == width + 2:
            parts.pop()
        elif kind == "duplicate":
            rows.insert(j % (len(rows) + 1),
                        " ".join(parts[:width] + [token] + parts[width + 1:]))
        elif kind == "blank":
            rows.insert(j % (len(rows) + 1), ["", "   ", "# a comment"][j % 3])
        line = " ".join(parts)
        if kind == "spaces":
            line = line.replace(" ", ["\t", "  ", " \t "][j % 3])
        elif kind == "comment":
            line += ["  # note", "#", f" # {token}"][j % 3]
        rows[i] = line
    return rows


def _outcome(text):
    """The error ``parse_model_text`` raises on ``text``, as its class and
    message, or the model it builds."""
    try:
        return parse_model_text(text, tolerance=None)
    except ModelFileError as exc:
        return type(exc), str(exc)


def _with_loop(N, table, kept):
    """A stand-in for ``model_io._section`` that reads ``table``'s section
    with its line loop in ``tests/model_io_oracle.py``, for the fusion
    rules ``N``, and the other table's with the library; each result of
    the loop is appended to ``kept``."""
    section = model_io._section
    loop = {"F": model_io_oracle.f_section_loop, "R": model_io_oracle.r_section_loop}[table]

    def read(rows, index, name, width, keys):
        if name != table:
            return section(rows, index, name, width, keys)
        kept.append(loop(rows, index, N))
        return kept[-1] if name == "F" else kept[-1].reshape(-1)[keys]
    return read


#: Lists of mutations for :func:`_mutated`.
_EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete", "drop im", "duplicate",
                     "blank", "spaces", "comment"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), _TOKENS), max_size=6)


class TestFSectionOracle:
    """The ``[f]`` section read as token arrays against the line-by-line
    loop of ``tests/model_io_oracle.py``: the same error and message, or
    the same F store and index, byte for byte, on mutated renderings of
    Fibonacci and su2_k k=3."""

    @settings(max_examples=300)
    @given(spec=st.sampled_from([("fibonacci", None), ("su2_k", 3)]),
           seed=st.integers(0, 2 ** 16), edits=_EDITS)
    def test_same_result_as_line_loop(self, spec, seed, edits):
        head, rows, tail = _rendered(*spec, seed)
        rows = _mutated(rows, edits)
        text = "\n".join(head + rows + tail) + "\n"
        got = _outcome(text)
        with mock.patch.object(model_io, "_section",
                               _with_loop(load_builtin(*spec).N, "F", [])):
            want = _outcome(text)
        if isinstance(want, tuple):
            assert got == want
            return
        assert not isinstance(got, tuple), got
        assert got._f_store.tobytes() == want._f_store.tobytes()
        assert got._f_row.tobytes() == want._f_row.tobytes()
        # every value has the bits float() reads from its tokens, the last
        # of repeated rows winning
        index = {label: i for i, label in enumerate(got.labels)}
        last = {}
        for row in rows:
            parts = row.split("#", 1)[0].split()
            if parts:
                last[tuple(index[x] for x in parts[:6])] = complex(
                    float(parts[6]), float(parts[7]) if len(parts) == 8 else 0.0)
        at = tuple(np.array(list(last)).T)
        values = got._f_store[got._f_row[at[:5]], at[5]]
        assert values.tobytes() == np.array(list(last.values())).tobytes()

    def test_values_are_floats_of_their_tokens(self):
        # mixed 7- and 8-token rows, tabs, numbers in other spellings and
        # a repeated row whose last copy wins
        text = "\n".join([
            "name: z2", "charges: 0 1", "dual: 0:0 1:1", "qdim: 0:1 1:1",
            "[fusion]", "1 1 -> 0", "[f]",
            "1 1 1 1 0 0\t1_0 ١٢",
            "0 1 1 0 1 0  -0.0",
            "1 0 1 0 1 1 ٣.٥ 1e-400  # comment",
            "1 0 1 0 1 1 -0.25",
        ]) + "\n"
        model = parse_model_text(text, tolerance=None)
        want = {(1, 1, 1, 1, 0, 0): complex(10.0, 12.0), (0, 1, 1, 0, 1, 0): complex(-0.0, 0.0),
                (1, 0, 1, 0, 1, 1): complex(-0.25, 0.0)}
        for (a, b, c, d, e, f), value in want.items():
            got = model._f_store[model._f_row[a, b, c, d, e], f]
            assert np.array(got).tobytes() == np.array(value).tobytes()


class TestRSectionOracle:
    """The ``[r]`` section read as token arrays against the line-by-line
    loop of ``tests/model_io_oracle.py``: the same error and message, or
    the same R, byte for byte, on mutated renderings of Fibonacci, Ising
    and su2_k k=3."""

    @settings(max_examples=300)
    @given(spec=st.sampled_from([("fibonacci", None), ("ising", None), ("su2_k", 3)]),
           seed=st.integers(0, 2 ** 16), edits=_EDITS)
    def test_same_result_as_line_loop(self, spec, seed, edits):
        head, f_rows, tail = _rendered(*spec, seed)
        rows = _mutated(tail[2:], edits, width=3)
        text = "\n".join(head + f_rows + tail[:2] + rows) + "\n"
        got = _outcome(text)
        loops = []
        with mock.patch.object(model_io, "_section",
                               _with_loop(load_builtin(*spec).N, "R", loops)):
            want = _outcome(text)
        if isinstance(want, tuple):
            assert got == want
            return
        assert not isinstance(got, tuple), got
        assert got.R.tobytes() == want.R.tobytes() == loops[0].tobytes()
