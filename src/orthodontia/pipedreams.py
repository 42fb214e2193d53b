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
is tested once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import diffops, permcomb
from .permcomb import Permutation
from .polyring import Polynomial

MAX_N = 7

# (n, k, v) -> Dem(v, letters k+1.. of the staircase word of S_n)
_dem_rest: dict[tuple, Permutation] = {}


@dataclass(frozen=True)
class PipeDream:
    n: int
    crosses: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.crosses:
            if not (1 <= i and 1 <= j and i + j <= self.n):
                raise ValueError(f"cell {(i, j)} outside the staircase for n={self.n}")

    def sorted_crosses(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.crosses))


def _rest(n: int, k: int, v: Permutation, word: list[int]) -> Permutation:
    """Dem(v, word[k+1:]), word the staircase word of S_n; memoized in `_dem_rest`."""
    rest = _dem_rest.get((n, k, v))
    if rest is None:
        rest = _dem_rest[n, k, v] = reduce(permcomb.demazure_star, word[k + 1:], v)
    return rest


def _walk(w: Permutation, start, cross):
    """Sum over the fillings with Demazure product w, one cell at a time.

    Each filling starts at ``start``; a cross at (i, j) maps a value v to
    ``cross(v, i, j)``, and values that reach the same state are added.
    """
    w = tuple(permcomb.check_perm(w))
    n = len(w)
    if n > MAX_N:
        raise ValueError(f"n={n} too large for the pipe-dream walk (max {MAX_N})")
    cells = [(i, j) for i in range(1, n) for j in range(n - i, 0, -1)]
    word = [i + j - 1 for i, j in cells]
    states = {permcomb.identity(n): start}
    below: dict[Permutation, bool] = {}  # v -> v <= w
    above: dict[Permutation, bool] = {}  # r -> w <= r
    for k, (i, j) in enumerate(cells):
        nxt = {}
        for u, value in states.items():
            for v, crossed in ((u, False), (permcomb.demazure_star(u, word[k]), True)):
                ok = below.get(v)
                if ok is None:
                    ok = below[v] = permcomb.bruhat_le(v, w)
                if ok:
                    r = _rest(n, k, v, word)
                    ok = above.get(r)
                    if ok is None:
                        ok = above[r] = permcomb.bruhat_le(w, r)
                if ok:
                    val = cross(value, i, j) if crossed else value
                    nxt[v] = nxt[v] + val if v in nxt else val
        states = nxt
    return states[w]


def enumerate_pd(w: Permutation) -> list[PipeDream]:
    """All pipe dreams P with Demazure product w, in canonical order."""
    dreams = _walk(w, [()], lambda ds, i, j: [d + ((i, j),) for d in ds])
    return sorted((PipeDream(len(w), frozenset(d)) for d in dreams), key=PipeDream.sorted_crosses)


def weight_sum(w: Permutation) -> Polynomial:
    """Signed sum over PD(w) of prod (x_i + y_j - x_i y_j); equals G_w(x, y).

    A pipe dream with more crosses than l(w) is nonreduced and enters with
    sign (-1)^(#crosses - l(w)), matching the recursion convention where
    the isobaric operator carries the (1 - x_{i+1}) factor.  Each cross
    multiplies by -(x_i + y_j - x_i y_j), and the sum by (-1)^l(w).
    """
    n = len(w)

    def cross(f: Polynomial, i: int, j: int) -> Polynomial:
        return f * -diffops._xy_factor(i, j, n, n, barred=True)

    total = _walk(w, Polynomial.one(n, n), cross)
    return -total if permcomb.length(w) % 2 else total
