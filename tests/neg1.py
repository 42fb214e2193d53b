"""script_S(D) with every y variable specialized to -1, built as a polynomial.

The reference the tests expand and compare with the Lascoux-basis walk of
`lascouxbasis.theorem12_check`.  It is written against `Polynomial` and
`Polynomial.add_times_divided_difference` only, so it shares no evaluator
code with the engine.  The column indices j drop out of the specialized
operators, so it is defined for every %-avoiding diagram, including those
whose recorded j indices fall outside [1, m].
"""

from __future__ import annotations

import functools

from orthodontia.diagrams import Diagram, orthodontic_sequence
from orthodontia.polyring import Polynomial


def pi_double_neg1(f: Polynomial, i: int) -> Polynomial:
    """pi_{i,j} at y_j = -1: d_i((x_i - 1) f) = f + (x_{i+1} - 1) d_i(f)."""
    g = Polynomial.var_x(i + 1, f.n, f.m) - Polynomial.one(f.n, f.m)
    return f.add_times_divided_difference(g, i)


@functools.cache
def _omega_neg1(i: int, k: int, n: int) -> Polynomial:
    """omega_i^M at y = -1 with |M| = k: prod_{j<=i} (x_j - 1)^k, ambient (n, 0)."""
    one = Polynomial.one(n, 0)
    out = one
    for j in range(1, i + 1):
        factor = Polynomial.var_x(j, n, 0) - one
        for _ in range(k):
            out = out * factor
    return out


def script_S_neg1(D: Diagram) -> Polynomial:
    """script_S(D) at y = -1, ambient (nrows, 0): steps l..1, then the outer omegas."""
    n = D.nrows
    K, steps = orthodontic_sequence(n, D.columns)
    t = Polynomial.one(n, 0)
    for i, _, M in reversed(steps):
        if M:
            t = _omega_neg1(i, M.bit_count(), n) * t
        t = pi_double_neg1(t, i)
    for a, Ka in enumerate(K, 1):
        if Ka:
            t = _omega_neg1(a, Ka.bit_count(), n) * t
    return t

