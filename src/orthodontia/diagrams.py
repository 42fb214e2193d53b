"""Diagrams as column lists and the double orthodontia algorithm.

A diagram is a subset of [n] x [m] stored column by column; column order
matters and empty columns are kept in place so that recorded column
indices stay stable throughout the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import permcomb
from .permcomb import Permutation


@dataclass(frozen=True)
class Diagram:
    nrows: int
    columns: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.nrows < 0:
            raise ValueError(f"diagram row count nrows must be >= 0, got {self.nrows}")
        for col in self.columns:
            for i in col:
                if not 1 <= i <= self.nrows:
                    raise ValueError(f"row index {i} outside [1,{self.nrows}]")

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def cells(self):
        """All (row, col) pairs, column-major."""
        for j, col in enumerate(self.columns, start=1):
            for i in sorted(col):
                yield (i, j)


def from_cells(nrows: int, ncols: int, cells) -> Diagram:
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, j in cells:
        cols[j - 1].add(i)
    return Diagram(nrows, tuple(frozenset(c) for c in cols))


def rothe(w: Permutation) -> Diagram:
    """Rothe diagram D(w) = {(i,j): i < w^-1(j) and j < w(i)}."""
    permcomb.check_perm(w)
    n = len(w)
    winv = permcomb.inverse(w)
    cols = []
    for j in range(1, n + 1):
        cols.append(frozenset(i for i in range(1, winv[j - 1]) if j < w[i - 1]))
    return Diagram(n, tuple(cols))


def is_percent_avoiding(D: Diagram) -> bool:
    """No rows i1 < i2 and columns j1 < j2 restrict to the forbidden pattern."""
    for (j1, c1), (j2, c2) in combinations(enumerate(D.columns), 2):
        for i2 in c1:
            for i1 in c2:
                if i1 < i2 and i1 not in c1 and i2 not in c2:
                    return False
    return True


def columns_ordered_by_inclusion(D: Diagram) -> bool:
    for c1, c2 in combinations(D.columns, 2):
        if not (c1 <= c2 or c2 <= c1):
            return False
    return True


def _standard_interval(k: int) -> frozenset[int]:
    return frozenset(range(1, k + 1))


def smallest_missing_tooth(col: frozenset[int]) -> int:
    """Smallest i with i not in col and i+1 in col."""
    for i in sorted(col):
        if i - 1 >= 1 and i - 1 not in col:
            return i - 1
    raise ValueError(f"column {sorted(col)} has no missing tooth")


@dataclass(frozen=True)
class OrthodonticSequence:
    """The data driving the orthodontia evaluators: K and the steps (i_k, j_k, M_k).

    K has one entry per row index 1..n; steps holds one triple per
    orthodontic step, k = 1..l in the order the algorithm records them.
    All recorded column indices refer to the original column positions of
    the input diagram.
    """

    K: tuple[frozenset[int], ...]
    steps: tuple[tuple[int, int, frozenset[int]], ...]


def orthodontic_sequence(D: Diagram, force: bool = False) -> OrthodonticSequence:
    """Run the double orthodontia algorithm on a %-avoiding diagram.

    Strips standard-interval columns into K, then repeats: close the
    smallest missing tooth of the leftmost nonempty column (recording the
    row i_k and adjusted column index j_k), strip newly standard columns
    into M_k.  Guaranteed to terminate for %-avoiding input; pass
    force=True to run on other diagrams at your own risk.
    """
    if not force and not is_percent_avoiding(D):
        raise ValueError("diagram is not %-avoiding "
                         "(`orthodontia orthodontia --force` runs the algorithm anyway)")
    n = D.nrows
    cols: list[frozenset[int]] = list(D.columns)

    K: list[set[int]] = [set() for _ in range(n)]
    for j, col in enumerate(cols, start=1):
        if col and col == _standard_interval(len(col)):
            K[len(col) - 1].add(j)
            cols[j - 1] = frozenset()

    steps: list[tuple[int, int, frozenset[int]]] = []
    cap = (n * n + 1) * max(1, len(cols))
    for _ in range(cap):
        leftmost = next((j for j, col in enumerate(cols, start=1) if col), None)
        if leftmost is None:
            break
        col = cols[leftmost - 1]
        i1 = smallest_missing_tooth(col)
        j1 = leftmost - sum(1 for a in range(1, i1 + 1) if a not in col)
        # swap rows i1 and i1 + 1; a column holding both is fixed by the swap
        cols = [c ^ {i1, i1 + 1} if (i1 in c) != (i1 + 1 in c) else c for c in cols]
        target = _standard_interval(i1)
        M1 = frozenset(j for j, c in enumerate(cols, start=1) if c == target)
        for j in M1:
            cols[j - 1] = frozenset()
        steps.append((i1, j1, M1))
    else:
        raise RuntimeError("orthodontia did not terminate (non-%-avoiding input?)")

    return OrthodonticSequence(K=tuple(frozenset(k) for k in K), steps=tuple(steps))


def all_diagrams(n: int, m: int):
    """All 2^(n*m) diagrams in [n] x [m], in a canonical order."""
    cells = [(i, j) for j in range(1, m + 1) for i in range(1, n + 1)]
    for mask in range(1 << len(cells)):
        chosen = [cells[k] for k in range(len(cells)) if mask >> k & 1]
        yield from_cells(n, m, chosen)


def format_diagram(D: Diagram) -> str:
    """Text format: 'n=<int>' then one ';<rows>' field per column.

    An empty field is an empty column, so 'n=5;1;1,3,4;;3;' has five
    columns, the last one empty, 'n=2;' has one empty column and 'n=2'
    has none.
    """
    return f"n={D.nrows}" + "".join(";" + ",".join(map(str, sorted(col))) for col in D.columns)


def parse_diagram(text: str) -> Diagram:
    text = text.strip()
    if not text.startswith("n="):
        raise ValueError("diagram text must start with 'n=<int>'")
    head, sep, rest = text.partition(";")
    try:
        nrows = int(head[2:])
        cols = [
            frozenset(int(t) for t in chunk.split(",")) if chunk.strip() else frozenset()
            for chunk in (rest.split(";") if sep else ())
        ]
    except ValueError:
        raise ValueError(f"not an integer row count or row index in diagram text {text!r}") from None
    return Diagram(nrows, tuple(cols))
