"""Primary column data, the sorting projection, and the sort-order relations.

The machinery used to induct on permutations: the first non-standard
column of the Rothe diagram, with the dominant sigma(w) and w_sort read off
the same D(w), and the two cover relations of the orthodontic sort order.
The column C and the window are masks, as in `diagrams`: bit i for row i
of C, bit j for column j of the window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import diagrams, permcomb
from .permcomb import Permutation


@dataclass(frozen=True)
class PrimaryColumnData:
    """(h, C, alpha, i1, beta) of w.  w maps the rows alpha+1..i1 onto the window
    h-beta+1..h; sigma = sigma(w) is that bijection renumbered to S_beta, and
    sort = w_sort is w with the values on those rows in increasing order."""
    h: int
    C: int
    alpha: int
    i1: int
    beta: int
    sigma: Permutation
    sort: Permutation

    @property
    def window(self) -> int:
        """The columns h-beta+1..h."""
        return (2 << self.h) - (2 << self.h - self.beta)

    @property
    def is_sorted(self) -> bool:
        return self.sigma == permcomb.identity(self.beta)


def primary_column_data(w: Permutation) -> PrimaryColumnData:
    """Locate the first non-standard-interval column of D(w).

    Dominant permutations get the degenerate data (n, empty, 0, n, n): the
    window is all of [n], so sigma(w) = w and w_sort is the identity, and a
    dominant permutation is sorted only if it is the identity.
    """
    permcomb.check_perm(w)
    n = len(w)
    D = diagrams.rothe(w)
    for h, C in enumerate(D.columns):
        if not diagrams.is_standard(C):
            alpha = (C ^ C + 2).bit_length() - 2  # rows 1..alpha lie in C, alpha + 1 does not
            i1 = diagrams.smallest_missing_tooth(C)
            break
    else:
        h, C, alpha, i1 = n, 0, 0, n
    beta, rows = i1 - alpha, w[alpha:i1]
    sigma = permcomb.check_perm(tuple(v - (h - beta) for v in rows))
    return PrimaryColumnData(h, C, alpha, i1, beta, sigma, (*w[:alpha], *sorted(rows), *w[i1:]))


def os_covers(w: Permutation, pcd: PrimaryColumnData,
              endpoint: str = "alpha-plus-one") -> Permutation | None:
    """The immediate predecessor of w in the orthodontic sort order; pcd is w's primary column data.

    The identity has none (None), and non-sorted w has w_sort.  Sorted
    nonidentity w has w s_{i1} s_{i1-1} ... s_{alpha+1}, one fold; the variant
    endpoint "alpha" extends the product down to s_alpha (the two agree
    when alpha = 0, where s_0 does not exist).
    """
    if endpoint not in ("alpha", "alpha-plus-one"):
        raise ValueError(f"unknown endpoint {endpoint!r}")
    if w == permcomb.identity(len(w)):
        return None
    if not pcd.is_sorted:
        return pcd.sort
    stop = pcd.alpha + 1 if endpoint == "alpha-plus-one" else max(pcd.alpha, 1)
    return functools.reduce(permcomb.right_multiply_s, range(pcd.i1, stop - 1, -1), w)
