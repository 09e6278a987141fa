"""Reference readers of a model file's ``[f]`` and ``[r]`` sections: the
line-by-line loops that :func:`anyonbraid.model_io._section` replaced with
token arrays.

Each row is split, checked and written on its own, in file order, so the
first bad row raises and a repeated row overwrites the one before it.  The
F loop returns the values of F's admissible entries in their C order, the
form the library's reader returns and the model lays out; the R loop
returns the dense ``(m, m, m)`` R, zero off the admissible set and 1 on
every admissible entry no row lists.  The library must raise the same
error with the same message on every input, and otherwise build a model
with the same F store and index and the same R, byte for byte.
"""

import math

import numpy as np

from anyonbraid.errors import ModelFileError
from anyonbraid.model import _admissible_blocks, _admissible_entries


def _charge_of(index, tok, lineno):
    """The charge of the label ``tok`` on line ``lineno``."""
    if tok not in index:
        raise ModelFileError(f"line {lineno}: unknown charge {tok!r}")
    return index[tok]


def _parse_value(parts, lineno):
    """The value ``re [im]`` of a table row, finite."""
    try:
        re_part = float(parts[0])
        im_part = float(parts[1]) if len(parts) > 1 else 0.0
    except (ValueError, IndexError):
        raise ModelFileError(f"line {lineno}: expected 're [im]' value") from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ModelFileError(f"line {lineno}: value {' '.join(parts)} is not finite")
    return complex(re_part, im_part)


def f_section_loop(section, index, N):
    """The values of F's admissible entries, in C order, from the
    ``(lineno, line)`` rows of the ``[f]`` section, read one row at a time;
    every admissible entry no row lists is 1."""
    rows, columns = _admissible_blocks(N)
    _, idx, _ = _admissible_entries(N)
    position = {entry: i for i, entry in enumerate(map(tuple, idx.tolist()))}
    F = np.ones(len(idx), dtype=complex)
    for lineno, line in section:
        parts = line.split()
        if len(parts) not in (7, 8):
            raise ModelFileError(f"line {lineno}: F rows are 'a b c d e f re [im]'")
        a, b, c, d, e, f = (_charge_of(index, t, lineno) for t in parts[:6])
        if not (rows[a, b, c, d, e] and columns[a, b, c, d, f]):
            raise ModelFileError(f"line {lineno}: F entry {' '.join(parts[:6])} "
                                 "is not admissible under the fusion rules")
        F[position[a, b, c, d, e, f]] = _parse_value(parts[6:], lineno)
    return F


def r_section_loop(section, index, N):
    """The dense R from the ``(lineno, line)`` rows of the ``[r]`` section,
    read one row at a time: zero off the admissible set, and 1 on every
    admissible entry no row lists."""
    R = N.astype(complex)
    for lineno, line in section:
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ModelFileError(f"line {lineno}: R rows are 'a b c re [im]'")
        idx = tuple(_charge_of(index, t, lineno) for t in parts[:3])
        if not N[idx]:
            raise ModelFileError(f"line {lineno}: R entry {' '.join(parts[:3])} "
                                 "is not admissible under the fusion rules")
        R[idx] = _parse_value(parts[3:], lineno)
    return R
