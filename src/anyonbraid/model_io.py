"""Declarative text format for user-supplied anyon models.

A model file is line-oriented: ``key: value`` headers followed by three
table sections.  Blank lines and ``#`` comments are ignored.  Example::

    name: z3
    charges: 0 1 2
    dual: 0:0 1:2 2:1
    qdim: 0:1 1:1 2:1

    [fusion]
    1 1 -> 2
    1 2 -> 0
    2 2 -> 1

    [f]
    # a b c d e f  re [im]      unlisted admissible entries default to 1

    [r]
    # a b c  re [im]            unlisted admissible entries default to 1
    1 1 2   -0.5  0.8660254037844386
    2 2 1   -0.5  0.8660254037844386
    1 2 0   -0.5 -0.8660254037844386
    2 1 0   -0.5 -0.8660254037844386

Vacuum fusion rows are implied and the fusion table is symmetrized; the
first listed charge is the vacuum.  F and R rows must sit at indices the
fusion rules admit, and every value must be finite.  The loader validates
the assembled model with :meth:`AnyonModel.verify_consistency` and rejects
it when any residual exceeds the tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelError, ModelFileError
from .model import (CONSISTENCY_TOL, AnyonModel, _admissible_blocks, _admissible_entries,
                    _regroup, check_model_size)


def parse_model_text(text: str, tolerance: float | None = CONSISTENCY_TOL) -> AnyonModel:
    """Parse and validate a model file's contents.

    ``tolerance=None`` skips the consistency gate, for callers that report
    the residuals themselves.
    """
    headers: dict[str, str] = {}
    sections: dict[str, list[tuple[int, str]]] = {"fusion": [], "f": [], "r": []}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                raise ModelFileError(f"line {lineno}: unknown section [{current}]")
            continue
        if current is None:
            if ":" not in line:
                raise ModelFileError(f"line {lineno}: expected 'key: value' header")
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
        else:
            sections[current].append((lineno, line))

    for required in ("name", "charges", "dual", "qdim"):
        if required not in headers:
            raise ModelFileError(f"missing header {required!r}")
    labels = headers["charges"].split()
    if len(labels) < 1 or len(set(labels)) != len(labels):
        raise ModelFileError("charges must be a non-empty list of distinct labels")
    index = {lab: i for i, lab in enumerate(labels)}
    m = len(labels)
    check_model_size(m)

    def charge_of(tok: str, lineno: int) -> int:
        if tok not in index:
            raise ModelFileError(f"line {lineno}: unknown charge {tok!r}")
        return index[tok]

    def parse_pairs(text_value: str, what: str) -> dict[int, str]:
        out = {}
        for item in text_value.split():
            if ":" not in item:
                raise ModelFileError(f"{what} entries must look like label:value, got {item!r}")
            lab, val = item.split(":", 1)
            if lab not in index:
                raise ModelFileError(f"unknown charge {lab!r} in {what}")
            out[index[lab]] = val
        if set(out) != set(range(m)):
            raise ModelFileError(f"{what} must cover every charge exactly once")
        return out

    dual_map = parse_pairs(headers["dual"], "dual")
    qdim_map = parse_pairs(headers["qdim"], "qdim")
    qd = np.zeros(m)
    for i, val in qdim_map.items():
        try:
            qd[i] = float(val)
        except ValueError:
            raise ModelFileError(f"qdim for {labels[i]!r} is not a number: {val!r}") from None
        if not math.isfinite(qd[i]):
            raise ModelFileError(f"qdim for {labels[i]!r} is not finite: {val!r}")

    N = np.zeros((m, m, m), dtype=np.int8)
    N[0] = np.eye(m, dtype=np.int8)
    N[:, 0] = np.eye(m, dtype=np.int8)
    for lineno, line in sections["fusion"]:
        if "->" not in line:
            raise ModelFileError(f"line {lineno}: fusion rows look like 'a b -> c ...'")
        lhs, rhs = line.split("->", 1)
        left = lhs.split()
        if len(left) != 2:
            raise ModelFileError(f"line {lineno}: fusion left side needs two charges")
        a, b = (charge_of(t, lineno) for t in left)
        for tok in rhs.split():
            c = charge_of(tok, lineno)
            N[a, b, c] = 1
            N[b, a, c] = 1

    def parse_value(parts: list[str], lineno: int) -> complex:
        try:
            re_part = float(parts[0])
            im_part = float(parts[1]) if len(parts) > 1 else 0.0
        except (ValueError, IndexError):
            raise ModelFileError(f"line {lineno}: expected 're [im]' value") from None
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise ModelFileError(f"line {lineno}: value {' '.join(parts)} is not finite")
        return complex(re_part, im_part)

    rows, columns = _admissible_blocks(N)
    idx, _ = _admissible_entries(N)
    row_of, F = _regroup(m, idx, np.ones(len(idx), dtype=complex), 5)
    for lineno, line in sections["f"]:
        parts = line.split()
        if len(parts) not in (7, 8):
            raise ModelFileError(f"line {lineno}: F rows are 'a b c d e f re [im]'")
        a, b, c, d, e, f = (charge_of(t, lineno) for t in parts[:6])
        if not (rows[a, b, c, d, e] and columns[a, b, c, d, f]):
            raise ModelFileError(f"line {lineno}: F entry {' '.join(parts[:6])} "
                                 "is not admissible under the fusion rules")
        F[row_of[a, b, c, d, e], f] = parse_value(parts[6:], lineno)
    R = N.astype(complex)
    for lineno, line in sections["r"]:
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ModelFileError(f"line {lineno}: R rows are 'a b c re [im]'")
        idx = tuple(charge_of(t, lineno) for t in parts[:3])
        if not N[idx]:
            raise ModelFileError(f"line {lineno}: R entry {' '.join(parts[:3])} "
                                 "is not admissible under the fusion rules")
        R[idx] = parse_value(parts[3:], lineno)

    try:
        model = AnyonModel(headers["name"], labels, N, qd, F, R,
                           meta={"source": "file"})
    except ModelError as exc:
        raise ModelFileError(f"invalid model data: {exc}") from exc
    for i in range(m):
        declared = index.get(dual_map[i])
        if declared is None or model.dual(i).index != declared:
            raise ModelFileError(
                f"declared dual of {labels[i]!r} disagrees with the fusion table")
    if tolerance is None:
        return model
    report = model.verify_consistency(tolerance)
    if not report.passed:
        raise ModelFileError(
            "model fails consistency checks: "
            f"pentagon={report.max_pentagon_residual:.3e} "
            f"hexagon={report.max_hexagon_residual:.3e} "
            f"unitarity={report.max_unitarity_residual:.3e} "
            f"qdim={report.qdim_residual:.3e} (tolerance {tolerance:g})")
    return model


def load_model_file(path, tolerance: float | None = CONSISTENCY_TOL) -> AnyonModel:
    """Load and validate a model file from disk (see :func:`parse_model_text`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return parse_model_text(text, tolerance)
