"""The operator algebra acting on polynomials.

Divided differences and their decorated variants, the doubled operators
used by the orthodontia formulas, the omega weight products, and the phi
multipliers; omega and the phi factor are folds of their factors in a fixed
order (`math.prod`).  Everything is exact: the divided difference is computed
per-term with the telescoping formula, so no rational functions appear.
Each operator is f -> d_i(L f) with d_i(L) = 1, so by the Leibniz rule it is
f + g d_i(f) with g = s_i(L); the kernel adds g d_i(f) into f in one pass over
f, and forms neither d_i(f) nor L f.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

from .polyring import Polynomial


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """d_i(f) = (f - s_i f) / (x_i - x_{i+1}), computed term by term.

    For a term x_i^a x_{i+1}^b u with u free of x_i, x_{i+1}:
    zero if a = b, a telescoping sum of a-b (resp. b-a) monomials otherwise.
    y-exponents ride along untouched.
    """
    return f._divided_difference(i)


def _one_minus_x(i: int, n: int, m: int) -> Polynomial:
    return Polynomial.one(n, m) - Polynomial.var_x(i, n, m)


def isobaric(f: Polynomial, i: int) -> Polynomial:
    """dbar_i(f) = d_i((1 - x_{i+1}) f) = f + (1 - x_i) d_i(f)."""
    return f.add_times_divided_difference(_one_minus_x(i, f.n, f.m), i)


def demazure(f: Polynomial, i: int) -> Polynomial:
    """pi_i(f) = d_i(x_i f) = f + x_{i+1} d_i(f)."""
    return f.add_times_divided_difference(Polynomial.var_x(i + 1, f.n, f.m), i)


def demazure_lascoux(f: Polynomial, i: int) -> Polynomial:
    """pibar_i(f) = dbar_i(x_i f) = f + x_{i+1} (1 - x_i) d_i(f)."""
    return f.add_times_divided_difference(
        Polynomial.var_x(i + 1, f.n, f.m) * _one_minus_x(i, f.n, f.m), i)


def _xy_factor(i: int, j: int, n: int, m: int, barred: bool) -> Polynomial:
    """x_i + y_j (unbarred) or x_i + y_j - x_i y_j (barred)."""
    x = Polynomial.var_x(i, n, m)
    y = Polynomial.var_y(j, n, m)
    return x + y - x * y if barred else x + y


def pi_double(f: Polynomial, i: int, j: int) -> Polynomial:
    """pi_{i,j}(f) = d_i((x_i + y_j) f) = f + (x_{i+1} + y_j) d_i(f)."""
    return f.add_times_divided_difference(_xy_factor(i + 1, j, f.n, f.m, barred=False), i)


def pibar_double(f: Polynomial, i: int, j: int) -> Polynomial:
    """pibar_{i,j}(f) = dbar_i((x_i + y_j - x_i y_j) f) = f + g d_i(f).

    Here g = (1 - x_i)(x_{i+1} + y_j - x_{i+1} y_j).
    """
    return f.add_times_divided_difference(
        _one_minus_x(i, f.n, f.m) * _xy_factor(i + 1, j, f.n, f.m, barred=True), i)


def omega(i: int, M: Iterable[int], barred: bool, n: int, m: int) -> Polynomial:
    """Product over s in M, then j in [i], of x_j + y_s (- x_j y_s when barred), folded."""
    if not 0 <= i <= n:
        raise IndexError(f"omega_{i} out of range for n={n}")
    bad = [s for s in sorted(M) if not 1 <= s <= m]
    if bad:
        raise IndexError(f"column index {bad[0]} out of range for m={m}")
    return math.prod((_xy_factor(j, s, n, m, barred) for s in sorted(M) for j in range(1, i + 1)),
                     start=Polynomial.one(n, m))


@functools.cache
def _phi_factor(i: int, n: int) -> Polynomial:
    """x_1 ... x_i (1 - x_{i+1}) ... (1 - x_n), folded once per (i, n); callers must not edit it."""
    return math.prod((Polynomial.var_x(j, n, 0) if j <= i else _one_minus_x(j, n, 0)
                      for j in range(1, n + 1)), start=Polynomial.one(n, 0))


def phi(f: Polynomial, i: int) -> Polynomial:
    """phi_i(f) = x_1 ... x_i (1 - x_{i+1}) ... (1 - x_n) f, in one product."""
    if f.m != 0:
        raise ValueError("phi requires a polynomial without y variables")
    if not 0 <= i <= f.n:
        raise IndexError(f"phi_{i} out of range for n={f.n}")
    return f * _phi_factor(i, f.n)
