"""Declarative model file format: parsing, validation, rejection."""

import math

import numpy as np
import pytest

from anyonbraid import (ModelError, ModelFileError, load_model_file,
                        parse_model_text)

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
        with pytest.raises(ModelError, match="400 charges need a dense F table"):
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
