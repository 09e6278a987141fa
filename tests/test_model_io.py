"""Declarative model file format: parsing, validation, rejection."""

import math

import numpy as np
import pytest

from anyonbraid import (ModelError, ModelFileError, load_builtin, load_model_file,
                        parse_model_text)

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
