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

The ``[f]`` section, the one that grows to tens of thousands of rows, is
read as token arrays (:func:`_f_section`): each row is split once, its six
labels are mapped to charges in one pass, its admissibility is one gather
from each mask of :func:`_admissible_blocks`, ``re`` and ``im`` are read
with ``float`` in one pass each (a row may leave out ``im``, which is then
0), and the values go into F's row store in one scatter.  When a row lists
an entry that an earlier row listed too, the last one wins.  The first bad
row in file order raises the error the row alone would (:func:`_check_f_row`).
The ``[fusion]`` and ``[r]`` sections are read row by row.
"""

from __future__ import annotations

import itertools
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
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    marks = [i for i, line in enumerate(lines) if line.startswith("[") and line.endswith("]")]
    headers: dict[str, str] = {}
    for lineno, line in enumerate(lines[:marks[0] if marks else len(lines)], start=1):
        if not line:
            continue
        if ":" not in line:
            raise ModelFileError(f"line {lineno}: expected 'key: value' header")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    # each section's non-blank (lineno, line) rows, in file order
    sections: dict[str, list[tuple[int, str]]] = {"fusion": [], "f": [], "r": []}
    for i, end in zip(marks, marks[1:] + [len(lines)]):
        current = lines[i][1:-1].strip().lower()
        if current not in sections:
            raise ModelFileError(f"line {i + 1}: unknown section [{current}]")
        sections[current] += [(n, line) for n, line in enumerate(lines[i + 1:end], start=i + 2)
                              if line]

    for required in ("name", "charges", "dual", "qdim"):
        if required not in headers:
            raise ModelFileError(f"missing header {required!r}")
    labels = headers["charges"].split()
    if len(labels) < 1 or len(set(labels)) != len(labels):
        raise ModelFileError("charges must be a non-empty list of distinct labels")
    index = {lab: i for i, lab in enumerate(labels)}
    m = len(labels)
    check_model_size(m)

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
        a, b = (_charge(index, t, lineno) for t in left)
        for tok in rhs.split():
            c = _charge(index, tok, lineno)
            N[a, b, c] = 1
            N[b, a, c] = 1

    row_of, F = _f_section(sections["f"], index, N)
    R = N.astype(complex)
    for lineno, line in sections["r"]:
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ModelFileError(f"line {lineno}: R rows are 'a b c re [im]'")
        idx = tuple(_charge(index, t, lineno) for t in parts[:3])
        if not N[idx]:
            raise ModelFileError(f"line {lineno}: R entry {' '.join(parts[:3])} "
                                 "is not admissible under the fusion rules")
        R[idx] = _value(parts[3:], lineno)

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


def _charge(index: dict[str, int], tok: str, lineno: int) -> int:
    """The charge of the label ``tok`` on line ``lineno``."""
    if tok not in index:
        raise ModelFileError(f"line {lineno}: unknown charge {tok!r}")
    return index[tok]


def _value(parts: list[str], lineno: int) -> complex:
    """The value ``re [im]`` of a table row, finite."""
    try:
        re_part = float(parts[0])
        im_part = float(parts[1]) if len(parts) > 1 else 0.0
    except (ValueError, IndexError):
        raise ModelFileError(f"line {lineno}: expected 're [im]' value") from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ModelFileError(f"line {lineno}: value {' '.join(parts)} is not finite")
    return complex(re_part, im_part)


def _check_f_row(parts: list[str], lineno: int, index: dict[str, int],
                 rows: np.ndarray, columns: np.ndarray) -> None:
    """Raise the first error of the ``[f]`` row ``parts``, if it has one:
    its width, then its first unknown charge, then its admissibility under
    the masks of :func:`_admissible_blocks`, then its value."""
    if len(parts) not in (7, 8):
        raise ModelFileError(f"line {lineno}: F rows are 'a b c d e f re [im]'")
    a, b, c, d, e, f = (_charge(index, t, lineno) for t in parts[:6])
    if not (rows[a, b, c, d, e] and columns[a, b, c, d, f]):
        raise ModelFileError(f"line {lineno}: F entry {' '.join(parts[:6])} "
                             "is not admissible under the fusion rules")
    _value(parts[6:], lineno)


class _Charges(dict):
    """A label index that reads an unknown label as one past the last charge."""

    def __missing__(self, label):
        return len(self)


def _f_section(section: list[tuple[int, str]], index: dict[str, int],
               N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F's row index and row store (:func:`_regroup` along axis 5) from the
    ``(lineno, line)`` rows of the ``[f]`` section; every admissible entry
    no row lists is 1.

    The rows are split into tokens once and read as eight token columns:
    the labels through ``index`` in one pass, their admissibility with one
    gather from each mask of :func:`_admissible_blocks`, the values with
    ``float`` in one pass per column, and the store is written with one
    scatter, the last of repeated rows winning.  The first row, in file
    order, that any of these finds bad raises through :func:`_check_f_row`.
    """
    m = N.shape[0]
    rows, columns = _admissible_blocks(N)
    idx, _ = _admissible_entries(N)
    row_of, F = _regroup(m, idx, np.ones(len(idx), dtype=complex), 5)
    split = [line.split() for _, line in section]
    n = len(split)
    width = np.fromiter(map(len, split), np.intp, n)
    # a 7-token row reads im 0, and a row of a wrong width reads as zeros
    padded = [p if len(p) == 8 else p + ["0"] if len(p) == 7 else ["0"] * 8 for p in split]
    tokens = list(itertools.chain.from_iterable(padded))
    tokens = [tokens[j::8] for j in range(8)]  # column j holds token j of every row
    charges = np.fromiter(map(_Charges(index).__getitem__,
                              itertools.chain.from_iterable(tokens[:6])),
                          np.intp, 6 * n).reshape(6, n)
    a, b, c, d, e, f = np.minimum(charges, m - 1)
    try:
        values = np.empty(n, complex)
        values.real = np.fromiter(map(float, tokens[6]), float, n)
        values.imag = np.fromiter(map(float, tokens[7]), float, n)
    except ValueError:  # some token is no number: the first bad row names it
        for (lineno, _), parts in zip(section, split):
            _check_f_row(parts, lineno, index, rows, columns)
        raise
    good = (((width == 7) | (width == 8)) & (charges < m).all(axis=0)
            & rows[a, b, c, d, e] & columns[a, b, c, d, f] & np.isfinite(values))
    if not good.all():
        first = int(good.argmin())
        _check_f_row(split[first], section[first][0], index, rows, columns)
    # numpy does not say which of repeated scatter targets is written last
    target = row_of[a, b, c, d, e].astype(np.intp) * m + f
    last = np.full(F.size, -1)
    np.maximum.at(last, target, np.arange(n))
    keep = np.flatnonzero(last[target] == np.arange(n))
    F.reshape(-1)[target[keep]] = values[keep]
    return row_of, F


def load_model_file(path, tolerance: float | None = CONSISTENCY_TOL) -> AnyonModel:
    """Load and validate a model file from disk (see :func:`parse_model_text`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    return parse_model_text(text, tolerance)
