"""Primary column data, the sorting projection, and the sort-order relations.

The machinery used to induct on permutations: the first non-standard
column of the Rothe diagram, the dominant permutation hiding inside it,
and the two cover relations of the orthodontic sort order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagrams, permcomb
from .permcomb import Permutation


@dataclass(frozen=True)
class PrimaryColumnData:
    h: int
    C: frozenset[int]
    alpha: int
    i1: int
    beta: int


def primary_column_data(w: Permutation) -> PrimaryColumnData:
    """Locate the first non-standard-interval column of D(w).

    Dominant permutations get the degenerate data (n, empty, 0, n, n).
    """
    permcomb.check_perm(w)
    n = len(w)
    D = diagrams.rothe(w)
    h = None
    for j, col in enumerate(D.columns, start=1):
        if col != frozenset(range(1, len(col) + 1)):
            h = j - 1
            break
    if h is None:
        return PrimaryColumnData(n, frozenset(), 0, n, n)
    C = D.columns[h]
    alpha = 0
    while alpha + 1 in C:
        alpha += 1
    i1 = diagrams.smallest_missing_tooth(C)
    return PrimaryColumnData(h, C, alpha, i1, i1 - alpha)


def sigma_of(w: Permutation) -> Permutation:
    """The dominant permutation in S_beta obtained by restricting w.

    w restricts to a bijection [alpha+1, i1] -> [h-beta+1, h]; renumber
    both sides to [beta].  Dominant w gives back w itself (the window is
    all of [n]), so a dominant permutation is sorted only if it is the
    identity.
    """
    pcd = primary_column_data(w)
    sigma = tuple(w[pcd.alpha + a - 1] - (pcd.h - pcd.beta) for a in range(1, pcd.beta + 1))
    return permcomb.check_perm(sigma)


def is_sorted_perm(w: Permutation) -> bool:
    sigma = sigma_of(w)
    return sigma == permcomb.identity(len(sigma))


def sort_of(w: Permutation) -> Permutation:
    """w_sort: reorder the window w(alpha+1), ..., w(i1) increasingly."""
    pcd = primary_column_data(w)
    v = list(w)
    window = sorted(v[pcd.alpha : pcd.i1])
    v[pcd.alpha : pcd.i1] = window
    return tuple(v)


def os_covers(w: Permutation, endpoint: str = "alpha-plus-one") -> list[Permutation]:
    """Immediate predecessors of w in the orthodontic sort order.

    Non-sorted w has the single predecessor w_sort.  Sorted nonidentity w
    has the predecessor w s_{i1} s_{i1-1} ... s_{alpha+1}; the variant
    endpoint "alpha" extends the product down to s_alpha (the two agree
    when alpha = 0, where s_0 does not exist).
    """
    if endpoint not in ("alpha", "alpha-plus-one"):
        raise ValueError(f"unknown endpoint {endpoint!r}")
    permcomb.check_perm(w)
    if w == permcomb.identity(len(w)):
        return []
    if not is_sorted_perm(w):
        return [sort_of(w)]
    pcd = primary_column_data(w)
    stop = pcd.alpha + 1 if endpoint == "alpha-plus-one" else max(pcd.alpha, 1)
    u = w
    for j in range(pcd.i1, stop - 1, -1):
        u = permcomb.right_multiply_s(u, j)
    return [u]
