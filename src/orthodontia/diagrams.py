"""Diagrams as column bit masks and the double orthodontia algorithm.

A diagram is a subset of [n] x [m] stored column by column, each column a
bit mask with bit i for row i; column order matters and empty columns (mask
0) are kept in place so that recorded column indices stay stable throughout
the algorithm.  `orthodontic_sequence(n, cols)` is the algorithm itself: it
takes a row count and column masks and returns (K, steps), with masks too,
bit j of K_a or M_k for column j; `bits` lists a mask's indices where they
are printed or multiplied over.  A scan lists and formats diagrams as
tuples of column masks alone (`avoiding_masks`, `format_masks`, which
writes each mask's text once).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import permcomb
from .permcomb import Permutation


@dataclass(frozen=True)
class Diagram:
    nrows: int
    columns: tuple[int, ...]  # column masks, bit i for row i

    def __post_init__(self):
        if self.nrows < 0:
            raise ValueError(f"diagram row count nrows must be >= 0, got {self.nrows}")
        for col in self.columns:
            if col < 0:
                raise ValueError(f"column mask {col} is negative")
            if col & 1 or col >> self.nrows + 1:
                raise ValueError(f"row index {0 if col & 1 else col.bit_length() - 1} "
                                 f"outside [1,{self.nrows}]")

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def cells(self):
        """All (row, col) pairs, column-major."""
        for j, col in enumerate(self.columns, start=1):
            for i in bits(col):
                yield (i, j)


def bits(mask: int) -> list[int]:
    """The indices of the bits set in mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def rothe(w: Permutation) -> Diagram:
    """Rothe diagram D(w) = {(i,j): i < w^-1(j) and j < w(i)}."""
    permcomb.check_perm(w)
    n = len(w)
    winv = permcomb.inverse(w)
    return Diagram(n, tuple(sum(1 << i for i in range(1, winv[j - 1]) if j < w[i - 1])
                            for j in range(1, n + 1)))


def _avoiding(cols: list[int]) -> bool:
    """No columns c1 left of c2 hold rows i1 < i2 with i1 in c2 only and i2 in c1 only."""
    for c1, c2 in combinations(cols, 2):
        only2 = c2 & ~c1
        if only2 and only2 & -only2 < c1 & ~c2:  # a row of c1 only lies past c2's first own row
            return False
    return True


def columns_ordered_by_inclusion(D: Diagram) -> bool:
    return all(c1 | c2 in (c1, c2) for c1, c2 in combinations(D.columns, 2))


def is_standard(col: int) -> bool:
    """Is the column the standard interval {1..|col|} (the empty column among them)?"""
    return not col & (col + 2)


def smallest_missing_tooth(col: int) -> int:
    """Smallest i >= 1 with i not in col and i+1 in col."""
    teeth = col >> 1 & ~col & ~1
    if not teeth:
        raise ValueError(f"column {bits(col)} has no missing tooth")
    return (teeth & -teeth).bit_length() - 1


def orthodontic_sequence(n: int, cols, force: bool = False) -> tuple[tuple[int, ...], tuple]:
    """The double orthodontic sequence (K, steps) of the %-avoiding diagram in [n] x [len(cols)]
    with these column masks, which are copied, not consumed.

    K has one entry per row index 1..n; steps holds one triple (i_k, j_k, M_k)
    per orthodontic step, k = 1..l in the order the algorithm records them.
    Each K_a and M_k is a mask of columns, bit j for column j, and all
    recorded column indices refer to the original column positions.  Strips
    standard-interval columns into K, then repeats: close the smallest
    missing tooth of the leftmost nonempty column (recording the row i_k and
    adjusted column index j_k), strip newly standard columns into M_k.
    Guaranteed to terminate for %-avoiding input; pass force=True to run on
    other diagrams at your own risk.
    """
    cols = list(cols)
    if not force and not _avoiding(cols):
        raise ValueError("diagram is not %-avoiding "
                         "(`orthodontia orthodontia --force` runs the algorithm anyway)")
    K = [0] * n
    for j, c in enumerate(cols):
        if c and is_standard(c):
            K[c.bit_count() - 1] |= 2 << j
            cols[j] = 0

    steps: list[tuple[int, int, int]] = []
    cap = (n * n + 1) * max(1, len(cols))
    # a swap never fills an empty column, so the leftmost nonempty column only moves right
    for leftmost in range(1, len(cols) + 1):
        while col := cols[leftmost - 1]:
            if len(steps) == cap:
                raise RuntimeError("orthodontia did not terminate (non-%-avoiding input?)")
            i1 = smallest_missing_tooth(col)
            target = (2 << i1) - 2  # the standard interval {1..i1}
            j1 = leftmost - i1 + (col & target).bit_count()
            M1 = 0
            for j, c in enumerate(cols):
                if (c >> i1 ^ c >> i1 + 1) & 1:  # swap rows i1 and i1 + 1; only then can c be target
                    c ^= 3 << i1
                    if c == target:
                        M1 |= 2 << j
                        c = 0
                    cols[j] = c
            steps.append((i1, j1, M1))
    return tuple(K), tuple(steps)


def avoiding_masks(n: int, m: int) -> list[tuple[int, ...]]:
    """The column masks of the %-avoiding diagrams in [n] x [m], in the order of their index,
    the number whose bit (j-1)*n + i-1 holds cell (i, j)."""
    masks = range(0, 2 << n, 2)
    # right[c]: the masks that may stand right of c; %-avoidance is a condition on column pairs
    right = {c: {d for d in masks if _avoiding([c, d])} for c in masks} if m > 1 else {}
    found = [()]
    # the index reads column m as its highest digit, so the columns are chosen from the right
    for k in range(m):
        found = [(c, *cols) for cols in found for c in masks if not k or right[c].issuperset(cols)]
    return found


# column mask -> its field ';<rows>' in the text format, which depends on the mask alone
_field: dict[int, str] = {}


def format_masks(n: int, cols) -> str:
    """format_diagram of Diagram(n, cols); each mask's field is written once, into `_field`."""
    for c in cols:
        if c not in _field:
            _field[c] = ";" + ",".join(map(str, bits(c)))
    return f"n={n}" + "".join([_field[c] for c in cols])


def format_diagram(D: Diagram) -> str:
    """Text format: 'n=<int>' then one ';<rows>' field per column.

    An empty field is an empty column, so 'n=5;1;1,3,4;;3;' has five
    columns, the last one empty, 'n=2;' has one empty column and 'n=2'
    has none.
    """
    return format_masks(D.nrows, D.columns)


def parse_diagram(text: str) -> Diagram:
    text = text.strip()
    if not text.startswith("n="):
        raise ValueError("diagram text must start with 'n=<int>'")
    head, sep, rest = text.partition(";")
    try:
        nrows = int(head[2:])
        rows = [[int(t) for t in chunk.split(",")] if chunk.strip() else []
                for chunk in (rest.split(";") if sep else ())]
    except ValueError:
        raise ValueError(f"not an integer row count or row index in diagram text {text!r}") from None
    # each row index is checked before it is shifted: 1 << i refuses i < 0 and takes i / 8 bytes;
    # a repeated index names one cell, so each mask sums a set
    for i in (i for col in rows for i in col):
        if not 1 <= i <= nrows:
            raise ValueError(f"row index {i} outside [1,{nrows}]")
    return Diagram(nrows, tuple(sum({1 << i for i in col}) for col in rows))
