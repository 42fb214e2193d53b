"""Generators for the polynomial families.

Double and single Grothendieck and Schubert polynomials and Lascoux and
key polynomials by divided difference recursions, each walked along one
chain from the index to a base case (`_chain`; the double ones start from
the staircase, one fold of its factors), stable Grothendieck polynomials,
and the orthodontia evaluators for diagrams.  A query for one permutation
walks its chain with a memo kept for that call only; a sweep over all of
S_n (`double_grothendieck_sweep`, `double_schubert_sweep`) walks the tree
of those chains depth first from w0, with no memo, holding only the values
on its current path.  Only the Lascoux polynomials, which every expansion
peels, are memoized module-wide.  `_evaluate_diagram` is the one evaluator
of the (K, steps) of `diagrams.orthodontic_sequence`; the theorem-12 word
of `lascouxbasis` walks its y = -1 specialization in the same step order.
"""

from __future__ import annotations

import math

from . import diffops, permcomb
from .diagrams import Diagram, bits, orthodontic_sequence
from .permcomb import Composition, Permutation
from .polyring import Polynomial

# L_alpha, keyed by alpha
_lascoux: dict[Composition, Polynomial] = {}


def _first_ascent(u: tuple[int, ...]) -> int | None:
    """The first i with u_i < u_{i+1}, or None if u is weakly decreasing."""
    return next((i for i in range(1, len(u)) if u[i - 1] < u[i]), None)


def _chain(index: tuple[int, ...], memo: dict, base, step) -> Polynomial:
    """The value at `index` of f(u) = step(f(u s_i), i), i the first ascent of u.

    An ascent of u is a position i with u_i < u_{i+1}; an index with no
    ascent (w0, or a weakly decreasing composition) has value base(u).
    The walk swaps at the first ascent until it reaches a memoized index
    or a base case, then steps back down, memoizing every index on the way.
    """
    path = []
    u = index
    while (f := memo.get(u)) is None and (i := _first_ascent(u)) is not None:
        path.append((u, i))
        u = permcomb.right_multiply_s(u, i)
    if f is None:
        f = memo[u] = base(u)
    for u, i in reversed(path):
        f = memo[u] = step(f, i)
    return f


def _descend(u: Permutation, f: Polynomial, step):
    """(u, f), then depth first (v, f(v)) for every v below u in the tree of `_sweep`."""
    yield u, f
    for i in range(1, len(u)):
        v = permcomb.right_multiply_s(u, i)
        if _first_ascent(v) == i:
            yield from _descend(v, step(f, i), step)


def _sweep(n: int, base, step):
    """(w, f(w)) for every w in S_n, f as in `_chain`, depth first down from w0.

    Each w != w0 costs one step from its parent w s_i (i the first ascent of
    w), and only the values on the path from w0 are held, l(w0) + 1 at most.
    """
    w0 = tuple(range(n, 0, -1))
    yield from _descend(w0, base(w0), step)


def _staircase_double(n: int, barred: bool) -> Polynomial:
    """prod_{i+j<=n} (x_i + y_j - x_i y_j) (barred) or (x_i - y_j), folded by i, then j."""
    def factor(i: int, j: int) -> Polynomial:
        x, y = Polynomial.var_x(i, n, n), Polynomial.var_y(j, n, n)
        return x + y - x * y if barred else x - y
    return math.prod((factor(i, j) for i in range(1, n) for j in range(1, n + 1 - i)),
                     start=Polynomial.one(n, n))


# (base, step) of the double recursions, as `_chain` and `_sweep` take them
_DOUBLE_G = (lambda w0: _staircase_double(len(w0), barred=True), diffops.isobaric)
_DOUBLE_S = (lambda w0: _staircase_double(len(w0), barred=False), diffops.divided_difference)


def double_grothendieck(w: Permutation) -> Polynomial:
    """G_w(x, y), ambient (n, n)."""
    return _chain(tuple(permcomb.check_perm(w)), {}, *_DOUBLE_G)


def double_schubert(w: Permutation) -> Polynomial:
    """S_w(x, y), ambient (n, n), by the direct d_i recursion."""
    return _chain(tuple(permcomb.check_perm(w)), {}, *_DOUBLE_S)


def double_grothendieck_sweep(n: int):
    """(w, G_w) for every w in S_n, as `_sweep` orders them."""
    yield from _sweep(n, *_DOUBLE_G)


def double_schubert_sweep(n: int):
    """(w, S_w) for every w in S_n, in the order of `double_grothendieck_sweep`."""
    yield from _sweep(n, *_DOUBLE_S)


def _staircase_single(w0: Permutation) -> Polynomial:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the y -> 0 base case: x^{w0 - 1}."""
    return Polynomial.monomial(tuple(v - 1 for v in w0))


def grothendieck(w: Permutation) -> Polynomial:
    """Ordinary Grothendieck polynomial G_w(x), ambient (n, 0)."""
    return _chain(tuple(permcomb.check_perm(w)), {}, _staircase_single, diffops.isobaric)


def schubert(w: Permutation) -> Polynomial:
    """Ordinary Schubert polynomial S_w(x), ambient (n, 0)."""
    return _chain(tuple(permcomb.check_perm(w)), {}, _staircase_single, diffops.divided_difference)


def lascoux(alpha: Composition) -> Polynomial:
    """Lascoux polynomial L_alpha, ambient (len(alpha), 0)."""
    return _chain(tuple(alpha), _lascoux, Polynomial.monomial, diffops.demazure_lascoux)


def key(alpha: Composition) -> Polynomial:
    """Key polynomial kappa_alpha, the lowest degree part of L_alpha."""
    return lascoux(tuple(alpha)).lowest_degree_part()


def key_via_pi(alpha: Composition) -> Polynomial:
    """kappa_alpha by the pi_i recursion; independent route for testing."""
    return _chain(tuple(alpha), {}, Polynomial.monomial, diffops.demazure)


def _evaluate_diagram(D: Diagram, inner_barred: bool, outer_barred: bool, step) -> Polynomial:
    """The nested operator product over the orthodontic sequence of D, ambient (nrows, ncols).

    prod_a omega_a^{K_a} * step(omega_{i_1}^{M_1} * ... step(omega_{i_l}^{M_l}, i_l, j_l)
    ..., i_1, j_1), the omegas those of `diffops.omega`, barred inside as
    inner_barred and outside as outer_barred say.  The steps (i_k, j_k, M_k)
    are applied innermost first, k = l..1.  An omega over an empty M or K
    is 1, so it is skipped.
    """
    n, m = D.nrows, D.ncols
    K, steps = orthodontic_sequence(n, D.columns)
    bad = [j for _, j, _ in steps if not 1 <= j <= m]
    if bad:
        raise ValueError(f"orthodontic column indices {bad} fall outside [1,{m}]; the "
                         "unspecialized evaluator is undefined here (`orthodontia check thm12` "
                         "checks its y -> -1 specialization)")
    t = Polynomial.one(n, m)
    for i, j, M in reversed(steps):
        if M:
            t = diffops.omega(i, bits(M), inner_barred, n, m) * t
        t = step(t, i, j)
    for a, Ka in enumerate(K, 1):
        if Ka:
            t = diffops.omega(a, bits(Ka), outer_barred, n, m) * t
    return t


def script_G(D: Diagram, barred_inner_omega: bool = True) -> Polynomial:
    """The orthodontia evaluator for double Grothendieck polynomials.

    Nested operator expression over the double orthodontic sequence, all
    pibar operators and barred omega prefix.  The inner omega factors are
    barred by default (the variant validated against the recursion); pass
    barred_inner_omega=False for the unbarred-inner variant.
    """
    return _evaluate_diagram(D, barred_inner_omega, True, diffops.pibar_double)


def script_S(D: Diagram) -> Polynomial:
    """The all-unbarred orthodontia evaluator (double Schubert side)."""
    return _evaluate_diagram(D, False, False, diffops.pi_double)


def stable_grothendieck(w: Permutation, nvars: int) -> Polynomial:
    """Stable Grothendieck polynomial G_w in nvars variables.

    Computes G_{1^N x w}(x_1..nvars, 0, ...) for increasing N until two
    consecutive values agree.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    permcomb.check_perm(w)
    cap = nvars + permcomb.length(w) + 2
    prev = None
    for N in range(cap + 1):
        cur = grothendieck(permcomb.shift(w, N)).restrict_x(nvars)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    raise RuntimeError(f"stable Grothendieck did not stabilize by N={cap}")
