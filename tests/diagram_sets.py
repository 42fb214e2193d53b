"""Diagrams the tests build: from a list of cells, all of [n] x [m], and the items of ``scan conj14``."""

from __future__ import annotations

from orthodontia import diagrams, lascouxbasis
from orthodontia.diagrams import Diagram


def from_cells(nrows: int, ncols: int, cells) -> Diagram:
    """The diagram in [nrows] x [ncols] holding these (row, column) cells."""
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, j in cells:
        cols[j - 1].add(i)
    return Diagram(nrows, tuple(frozenset(c) for c in cols))


def conj14_diagrams(n: int, m: int) -> list[Diagram]:
    """The diagrams that ``scan conj14 --n n --m m`` checks, in its order."""
    return [diagrams.from_masks(k, cols) for k, cols in lascouxbasis.conj14_items(n, m)]


def all_diagrams(n: int, m: int):
    """All 2^(n*m) diagrams in [n] x [m]: bit (j-1)*n + i-1 of the index holds cell (i, j)."""
    column = [diagrams._bits(b << 1) for b in range(1 << n)]
    full = (1 << n) - 1
    for mask in range(1 << n * m):
        yield Diagram(n, tuple(column[mask >> j * n & full] for j in range(m)))
