"""Generators for the polynomial families.

Double and single Grothendieck and Schubert polynomials via divided
difference recursions down weak order, Lascoux and key polynomials,
stable Grothendieck polynomials, and the orthodontia evaluators for
diagrams.  All recursions are memoized module-wide; tables are read-only
once built.
"""

from __future__ import annotations

from . import diffops, permcomb
from .diagrams import Diagram, OrthodonticSequence, orthodontic_sequence
from .permcomb import Composition, Permutation
from .polyring import Polynomial

# memo tables; single-writer build phases, read-only afterwards
_double_groth_tables: dict[int, dict[Permutation, Polynomial]] = {}
_double_schub_tables: dict[int, dict[Permutation, Polynomial]] = {}
_groth_x: dict[Permutation, Polynomial] = {}
_schub_x: dict[Permutation, Polynomial] = {}
_lascoux: dict[Composition, Polynomial] = {}


def _staircase_double(n: int, barred: bool) -> Polynomial:
    """prod_{i+j<=n} (x_i + y_j - x_i y_j) (barred) or (x_i - y_j)."""
    out = Polynomial.one(n, n)
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            x = Polynomial.var_x(i, n, n)
            y = Polynomial.var_y(j, n, n)
            out = out * (x + y - x * y if barred else x - y)
    return out


def _build_table(n: int, base: Polynomial, step) -> dict[Permutation, Polynomial]:
    """Sweep down weak order from w0, applying `step(f, i)` along descents."""
    w0 = permcomb.longest(n)
    table = {w0: base}
    frontier = [w0]
    while frontier:
        nxt = []
        for w in frontier:
            for i in permcomb.descents(w):
                child = permcomb.right_multiply_s(w, i)
                if child not in table:
                    table[child] = step(table[w], i)
                    nxt.append(child)
        frontier = nxt
    return table


def double_grothendieck_table(n: int) -> dict[Permutation, Polynomial]:
    if n not in _double_groth_tables:
        _double_groth_tables[n] = _build_table(
            n, _staircase_double(n, barred=True), diffops.isobaric
        )
    return _double_groth_tables[n]


def double_grothendieck(w: Permutation) -> Polynomial:
    """G_w(x, y), ambient (n, n)."""
    return double_grothendieck_table(len(permcomb.check_perm(w)))[tuple(w)]


def double_schubert_table(n: int) -> dict[Permutation, Polynomial]:
    if n not in _double_schub_tables:
        _double_schub_tables[n] = _build_table(
            n, _staircase_double(n, barred=False), diffops.divided_difference
        )
    return _double_schub_tables[n]


def double_schubert(w: Permutation) -> Polynomial:
    """S_w(x, y), ambient (n, n), by the direct d_i recursion."""
    return double_schubert_table(len(permcomb.check_perm(w)))[tuple(w)]


def double_schubert_via_lowest(w: Permutation) -> Polynomial:
    """S_w(x, y) as the lowest degree part of G_w(x, -y)."""
    return double_grothendieck(w).negate_y().lowest_degree_part()


def _staircase_single(n: int) -> Polynomial:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the y -> 0 base case."""
    return Polynomial.monomial(tuple(n - i for i in range(1, n + 1)))


def _single_recursive(w: Permutation, memo: dict, step) -> Polynomial:
    """Single-variable recursion along one ascending chain to w0."""
    w = tuple(w)
    if w in memo:
        return memo[w]
    chain = [w]
    u = w
    while u not in memo:
        asc = permcomb.ascents(u)
        if not asc:
            memo[u] = _staircase_single(len(u))
            break
        u = permcomb.right_multiply_s(u, asc[0])
        chain.append(u)
    for v in reversed(chain):
        if v not in memo:
            asc = permcomb.ascents(v)[0]
            memo[v] = step(memo[permcomb.right_multiply_s(v, asc)], asc)
    return memo[w]


def grothendieck(w: Permutation) -> Polynomial:
    """Ordinary Grothendieck polynomial G_w(x), ambient (n, 0)."""
    return _single_recursive(permcomb.check_perm(w), _groth_x, diffops.isobaric)


def schubert(w: Permutation) -> Polynomial:
    """Ordinary Schubert polynomial S_w(x), ambient (n, 0)."""
    return _single_recursive(permcomb.check_perm(w), _schub_x, diffops.divided_difference)


def lascoux(alpha: Composition) -> Polynomial:
    """Lascoux polynomial L_alpha, ambient (len(alpha), 0)."""
    alpha = tuple(alpha)
    if alpha in _lascoux:
        return _lascoux[alpha]
    if any(a < 0 for a in alpha):
        raise ValueError(f"composition parts must be nonnegative: {alpha}")
    asc = next((i for i in range(1, len(alpha)) if alpha[i - 1] < alpha[i]), None)
    if asc is None:
        out = Polynomial.monomial(alpha)
    else:
        out = diffops.demazure_lascoux(lascoux(permcomb.comp_swap(alpha, asc)), asc)
    _lascoux[alpha] = out
    return out


def key(alpha: Composition) -> Polynomial:
    """Key polynomial kappa_alpha, the lowest degree part of L_alpha."""
    alpha = tuple(alpha)
    if all(a == 0 for a in alpha):
        return Polynomial.one(len(alpha), 0)
    return lascoux(alpha).lowest_degree_part()


def key_via_pi(alpha: Composition) -> Polynomial:
    """kappa_alpha by the pi_i recursion; independent route for testing."""
    alpha = tuple(alpha)
    asc = next((i for i in range(1, len(alpha)) if alpha[i - 1] < alpha[i]), None)
    if asc is None:
        return Polynomial.monomial(alpha)
    return diffops.demazure(key_via_pi(permcomb.comp_swap(alpha, asc)), asc)


def _evaluate(seq: OrthodonticSequence, n: int, m: int, inner_omega, outer_omega, step) -> Polynomial:
    """The nested operator product over an orthodontic sequence.

    prod_a outer_omega(a, K_a) * step(inner_omega(i_1, M_1) * ...
    step(inner_omega(i_l, M_l), i_l, j_l) ..., i_1, j_1), in ambient (n, m).
    An omega over an empty M or K is 1, so it is skipped.
    """
    t = Polynomial.one(n, m)
    for k in range(seq.nsteps, 0, -1):
        i, M = seq.i[k - 1], seq.M[k - 1]
        if M:
            t = inner_omega(i, M) * t
        t = step(t, i, seq.j[k - 1])
    for a in range(1, n + 1):
        if seq.K[a - 1]:
            t = outer_omega(a, seq.K[a - 1]) * t
    return t


def _check_j_range(seq: OrthodonticSequence, m: int) -> None:
    bad = [j for j in seq.j if not 1 <= j <= m]
    if bad:
        raise ValueError(
            f"orthodontic column indices {bad} fall outside [1,{m}]; the "
            "unspecialized evaluator is undefined here (the y -> -1 "
            "specialization script_S_neg1 still is)"
        )


def script_G(D: Diagram, barred_inner_omega: bool = True) -> Polynomial:
    """The orthodontia evaluator for double Grothendieck polynomials.

    Nested operator expression over the double orthodontic sequence, all
    pibar operators and barred omega prefix.  The inner omega factors are
    barred by default (the variant validated against the recursion); pass
    barred_inner_omega=False for the unbarred-inner variant.
    """
    n, m = D.nrows, D.ncols
    seq = orthodontic_sequence(D)
    _check_j_range(seq, m)
    return _evaluate(
        seq, n, m,
        lambda i, M: diffops.omega(i, M, barred_inner_omega, n, m),
        lambda a, K: diffops.omega(a, K, True, n, m),
        diffops.pibar_double,
    )


def script_S(D: Diagram) -> Polynomial:
    """The all-unbarred orthodontia evaluator (double Schubert side)."""
    n, m = D.nrows, D.ncols
    seq = orthodontic_sequence(D)
    _check_j_range(seq, m)

    def omega(i, M):
        return diffops.omega(i, M, False, n, m)

    return _evaluate(seq, n, m, omega, omega, diffops.pi_double)


def script_S_neg1(D: Diagram) -> Polynomial:
    """script_S(D) with every y variable already specialized to -1.

    The column indices j drop out of the specialized operators, so this
    evaluator is defined for every %-avoiding diagram, including those
    whose recorded j indices fall outside [1, m].  Ambient (n, 0).
    """
    n = D.nrows
    one = Polynomial.one(n, 0)

    def omega(i, M):
        # omega_i^M at y = -1 is prod_{j<=i} (x_j - 1)^{|M|}
        out = one
        for j in range(1, i + 1):
            factor = Polynomial.var_x(j, n, 0) - one
            for _ in range(len(M)):
                out = out * factor
        return out

    def step(f, i, j):
        # pi_{i,j} at y = -1 is f -> d_i((x_i - 1) f)
        return diffops.divided_difference((Polynomial.var_x(i, n, 0) - one) * f, i)

    return _evaluate(orthodontic_sequence(D), n, 0, omega, omega, step)


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
