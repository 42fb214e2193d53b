"""Permutations in one-line notation and integer compositions.

Permutations are tuples of the integers 1..n, 1-based throughout.
Compositions are tuples of nonnegative integers of fixed length.
"""

from __future__ import annotations

from itertools import combinations, permutations

Permutation = tuple[int, ...]
Composition = tuple[int, ...]


def check_perm(w: Permutation) -> Permutation:
    """Validate that w is a bijection of [n]; return it unchanged."""
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of [{n}]: {w}")
    return w


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def all_perms(n: int):
    """All of S_n in lexicographic order."""
    return permutations(range(1, n + 1))


def length(w: Permutation) -> int:
    """Number of inversions #{(i,j): i < j, w(i) > w(j)}."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def right_multiply_s(w: Permutation, j: int) -> Permutation:
    """w * s_j: swap the entries at positions j and j+1 (1-based).

    Also alpha * s_j for a composition alpha.
    """
    if not 1 <= j <= len(w) - 1:
        raise IndexError(f"s_{j} out of range for S_{len(w)}")
    v = list(w)
    v[j - 1], v[j] = v[j], v[j - 1]
    return tuple(v)


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def avoids_pattern(w: Permutation, p: Permutation) -> bool:
    """True iff no subsequence of w is order-isomorphic to p (brute force)."""
    k = len(p)
    if k > len(w):
        return True
    rel = tuple(sorted(range(k), key=lambda i: p[i]))
    for sub in combinations(w, k):
        if tuple(sorted(range(k), key=lambda i: sub[i])) == rel:
            return False
    return True


def is_vexillary(w: Permutation) -> bool:
    return avoids_pattern(w, (2, 1, 4, 3))


def demazure_star(w: Permutation, j: int) -> Permutation:
    """Demazure (0-Hecke) product w * s_j: keep w if the length would drop."""
    ws = right_multiply_s(w, j)
    return ws if w[j - 1] < w[j] else w


def bruhat_le(u: Permutation, w: Permutation) -> bool:
    """u <= w in Bruhat order: sorted u[:k] <= sorted w[:k] entrywise, every k."""
    return all(a <= b for k in range(1, len(u)) for a, b in zip(sorted(u[:k]), sorted(w[:k])))


def shift(w: Permutation, N: int) -> Permutation:
    """The permutation 1^N x w: fix 1..N, act as w shifted up by N."""
    return identity(N) + tuple(wi + N for wi in w)


def format_perm(w: Permutation) -> str:
    """Digit string for n <= 9 (e.g. "31542"), comma-separated otherwise."""
    if len(w) <= 9:
        return "".join(str(i) for i in w)
    return ",".join(str(i) for i in w)


def parse_perm(s: str) -> Permutation:
    s = s.strip()
    try:
        w = tuple(int(t) for t in (s.split(",") if "," in s else s))
    except ValueError:
        raise ValueError(f"not a permutation in one-line notation: {s!r}") from None
    return check_perm(w)


def parse_comp(s: str) -> Composition:
    try:
        alpha = tuple(int(t) for t in s.strip().split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated composition: {s!r}") from None
    if any(a < 0 for a in alpha):
        raise ValueError(f"composition parts must be nonnegative: {alpha}")
    return alpha

