"""Pipe dreams and the weight-sum formula, by a pruned walk over the staircase.

The independent oracle for every Grothendieck computation.  The cells of
the staircase grid are read row by row, right to left, and cell (i, j)
carries the letter s_{i+j-1}; a filling is a pipe dream for w when the
Demazure (0-Hecke) product of the letters of its crosses is w.  The walk
keeps one value per Demazure product u of the cells read so far, and drops
u unless u <= w <= Dem(u, rest of the word) in Bruhat order.  Demazure
products only go up, so no dropped state could have ended at w.
Dem(u, rest of the word) depends only on (n, k, u), k the cells read, so it
is memoized module-wide; within one walk each u <= w and each w <= Dem(...)
is tested once.  Values are added into each state's accumulator in place; a
value passed through uncrossed is shared until its first write copies it.
"""

from __future__ import annotations

import functools

from . import permcomb
from .permcomb import Permutation
from .polyring import Polynomial, Remainder

MAX_N = 7

# (n, k, v) -> Dem(v, letters k+1.. of the staircase word of S_n)
_dem_rest: dict[tuple, Permutation] = {}


def _rest(n: int, k: int, v: Permutation, word: list[int]) -> Permutation:
    """Dem(v, word[k+1:]), word the staircase word of S_n; memoized in `_dem_rest`."""
    rest = _dem_rest.get((n, k, v))
    if rest is None:
        rest = _dem_rest[n, k, v] = functools.reduce(permcomb.demazure_star, word[k + 1:], v)
    return rest


def _walk(w: Permutation, start, copy, cross):
    """Sum over the fillings with Demazure product w, one cell at a time.

    Each filling starts at ``start``.  ``cross(acc, value, (i, j))`` returns acc
    plus ``value`` crossed at (i, j) and may write into acc (None for a new state).
    A value passed through uncrossed is shared; its first write goes into ``copy(value)``.
    """
    w = tuple(permcomb.check_perm(w))
    n = len(w)
    if n > MAX_N:
        raise ValueError(f"n={n} too large for the pipe-dream walk (max {MAX_N})")
    cells = [(i, j) for i in range(1, n) for j in range(n - i, 0, -1)]
    word = [i + j - 1 for i, j in cells]
    states = {permcomb.identity(n): start}
    below = functools.cache(lambda v: permcomb.bruhat_le(v, w))  # v <= w
    above = functools.cache(lambda r: permcomb.bruhat_le(w, r))  # w <= r
    for k, cell in enumerate(cells):
        nxt = {u: value for u, value in states.items() if below(u) and above(_rest(n, k, u, word))}
        for u, value in states.items():
            v = permcomb.demazure_star(u, word[k])
            if below(v) and above(_rest(n, k, v, word)):
                acc = nxt.get(v)
                if acc is not None and acc is states.get(v):  # passed through, not yet written
                    acc = copy(acc)
                nxt[v] = cross(acc, value, cell)
        states = nxt
    return states[w]


def enumerate_pd(w: Permutation) -> list[tuple[tuple[int, int], ...]]:
    """All pipe dreams with Demazure product w, each its sorted crosses, in lexicographic order."""
    dreams = _walk(w, [()], list, lambda acc, ds, cell: (acc or []) + [d + (cell,) for d in ds])
    return sorted(tuple(sorted(d)) for d in dreams)


def weight_sum(w: Permutation) -> Polynomial:
    """Signed sum over PD(w) of prod (x_i + y_j - x_i y_j); equals G_w(x, y).

    A pipe dream with more crosses than l(w) is nonreduced and enters with
    sign (-1)^(#crosses - l(w)), matching the recursion convention where
    the isobaric operator carries the (1 - x_{i+1}) factor.  Each cross
    multiplies by -(x_i + y_j - x_i y_j), and the start value is (-1)^l(w).
    """
    n = len(w)
    z = (0,) * n
    e = {k: z[:k - 1] + (1,) + z[k:] for k in range(1, n + 1)}  # the exponents of x_k, or of y_k
    # -(x_i + y_j - x_i y_j), built once per cell and walk
    factor = functools.cache(lambda i, j: Polynomial(n, n, {(e[i], z): -1, (z, e[j]): -1,
                                                            (e[i], e[j]): 1}))

    def cross(acc: Remainder | None, f: Remainder, cell: tuple[int, int]) -> Remainder:
        acc = Remainder(Polynomial.zero(n, n)) if acc is None else acc
        acc.add_product(f, factor(*cell))
        return acc

    start = Polynomial.const(-1 if permcomb.length(w) % 2 else 1, n, n)
    return _walk(w, Remainder(start), Remainder, cross).polynomial()
