"""Diagrams the tests build: from a list of cells, all of [n] x [m], and the items of ``scan conj14``."""

from __future__ import annotations

from orthodontia import diagrams, lascouxbasis
from orthodontia.diagrams import Diagram


def from_cells(nrows: int, ncols: int, cells) -> Diagram:
    """The diagram in [nrows] x [ncols] holding these (row, column) cells."""
    cols = [0] * ncols
    for i, j in cells:
        cols[j - 1] |= 1 << i
    return Diagram(nrows, tuple(cols))


def is_percent_avoiding(D: Diagram) -> bool:
    """No rows i1 < i2 and columns j1 < j2 restrict to the forbidden pattern: the engine's
    pair test, which lists the scan's diagrams and guards the orthodontia algorithm."""
    return diagrams._avoiding(list(D.columns))


def conj14_diagrams(n: int, m: int) -> list[Diagram]:
    """The diagrams that ``scan conj14 --n n --m m`` checks, in its order."""
    return [Diagram(k, cols) for k, cols in lascouxbasis.conj14_items(n, m)]


def all_diagrams(n: int, m: int):
    """All 2^(n*m) diagrams in [n] x [m]: bit (j-1)*n + i-1 of the index holds cell (i, j)."""
    full = (1 << n) - 1
    for mask in range(1 << n * m):
        yield Diagram(n, tuple((mask >> j * n & full) << 1 for j in range(m)))
