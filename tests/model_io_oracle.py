"""Reference reader of a model file's ``[f]`` section: the line-by-line
loop that :func:`anyonbraid.model_io._f_section` replaced with token
arrays.

Each row is split, checked and written on its own, in file order, so the
first bad row raises and a repeated row overwrites the one before it.  The
library must raise the same error with the same message on every input,
and otherwise build the same F store and index, byte for byte.
"""

import math

import numpy as np

from anyonbraid.errors import ModelFileError
from anyonbraid.model import _admissible_blocks, _admissible_entries, _regroup


def f_section_loop(section, index, N):
    """F's row index and row store from the ``(lineno, line)`` rows of the
    ``[f]`` section, read one row at a time."""
    m = N.shape[0]

    def charge_of(tok, lineno):
        if tok not in index:
            raise ModelFileError(f"line {lineno}: unknown charge {tok!r}")
        return index[tok]

    def parse_value(parts, lineno):
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
    for lineno, line in section:
        parts = line.split()
        if len(parts) not in (7, 8):
            raise ModelFileError(f"line {lineno}: F rows are 'a b c d e f re [im]'")
        a, b, c, d, e, f = (charge_of(t, lineno) for t in parts[:6])
        if not (rows[a, b, c, d, e] and columns[a, b, c, d, f]):
            raise ModelFileError(f"line {lineno}: F entry {' '.join(parts[:6])} "
                                 "is not admissible under the fusion rules")
        F[row_of[a, b, c, d, e], f] = parse_value(parts[6:], lineno)
    return row_of, F
