"""Reference dense F tables of the built-in models.

For su2_k these are the q-6j symbols by the Racah sum, one F entry at a
time.  This is the scalar form that :func:`anyonbraid.model.su2k_model`
computed per admissible entry before it summed every entry at once.  Both
add the terms of each sum in the same order with the same float
operations, so their F tables must be bit-identical.  It is test-only: at
k=11 it takes several times as long as the vectorised build.

For Fibonacci and Ising they are the entries as the built-ins define them,
written into a dense ``(m,) * 6`` array as the library did before it kept
F as its admissible rows.
"""

import math

import numpy as np

from consistency_oracle import admissible_f


def su2k_f_table(k: int, N: np.ndarray) -> np.ndarray:
    """The dense F table of su2_k at level ``k`` with fusion tensor ``N``."""
    m = k + 1
    s1 = math.sin(math.pi / (k + 2))
    qnum = np.array([math.sin(n * math.pi / (k + 2)) / s1 for n in range(2 * k + 4)])
    qfact = np.ones(2 * k + 4)
    for n in range(1, 2 * k + 4):
        qfact[n] = qfact[n - 1] * qnum[n]

    def admissible(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b and a + b + c <= 2 * k

    def delta(a, b, c):
        num = (qfact[(-a + b + c) // 2] * qfact[(a - b + c) // 2]
               * qfact[(a + b - c) // 2])
        return math.sqrt(num / qfact[(a + b + c) // 2 + 1])

    def sixj(a, b, e, c, d, f):
        # Racah sum for {a b e; c d f} with doubled-integer arguments.
        for x, y, z in ((a, b, e), (a, d, f), (c, b, f), (c, d, e)):
            if not admissible(x, y, z):
                return 0.0
        t1, t2, t3, t4 = (a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2
        s12, s13, s23 = (a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2
        total = 0.0
        for z in range(max(t1, t2, t3, t4), min(s12, s13, s23) + 1):
            denom = (qfact[z - t1] * qfact[z - t2] * qfact[z - t3] * qfact[z - t4]
                     * qfact[s12 - z] * qfact[s13 - z] * qfact[s23 - z])
            total += (-1) ** z * qfact[z + 1] / denom
        return total * delta(a, b, e) * delta(e, c, d) * delta(c, b, f) * delta(a, f, d)

    F = np.zeros((m,) * 6, dtype=complex)
    for a, b, c, d, e, f in np.argwhere(admissible_f(N)).tolist():
        sign = (-1) ** ((a + b + c + d) // 2)
        F[a, b, c, d, e, f] = (sign * math.sqrt(qnum[e + 1] * qnum[f + 1])
                               * sixj(a, b, e, c, d, f))
    return F


def _fibonacci_entry(a, b, c, d, e, f):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    fmat = np.array([[1 / phi, 1 / math.sqrt(phi)],
                     [1 / math.sqrt(phi), -1 / phi]])
    return fmat[e, f] if (a, b, c, d) == (1, 1, 1, 1) else 1.0


def _ising_entry(a, b, c, d, e, f):
    s, p = 1, 2  # sigma, psi
    isq2 = 1 / math.sqrt(2.0)
    if (a, b, c, d) == (s, s, s, s):
        return -isq2 if e == p and f == p else isq2
    if (a, b, c, d) in ((s, p, s, p), (p, s, p, s)):
        return -1.0
    return 1.0


def builtin_f_table(name: str, N: np.ndarray) -> np.ndarray:
    """The dense F table of the built-in ``fibonacci`` or ``ising`` model
    with fusion tensor ``N``."""
    entry = {"fibonacci": _fibonacci_entry, "ising": _ising_entry}[name]
    F = np.zeros((N.shape[0],) * 6, dtype=complex)
    idx = np.argwhere(admissible_f(N))
    F[tuple(idx.T)] = [entry(*i) for i in idx.tolist()]
    return F
