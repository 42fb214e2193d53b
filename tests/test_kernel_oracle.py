"""Differential tests of the polynomial kernel against sympy.

Every expected value here is computed by sympy, from the same term
dictionary the kernel was built from or, for G_w, from a recursion written
in sympy alone; nothing in this file calls kernel
code except to produce the value under test and to read it back through
the public JSON form.  Sympy is a test dependency only.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from orthodontia import diffops, families  # noqa: E402
from orthodontia.polyring import EXP_LIMIT, ExponentRangeError, Polynomial, Remainder  # noqa: E402

import neg1  # noqa: E402

EXAMPLES = settings(max_examples=40, deadline=None)


def gens(n, m):
    xs = sympy.symbols(f"x1:{n + 1}") if n else ()
    ys = sympy.symbols(f"y1:{m + 1}") if m else ()
    return tuple(xs), tuple(ys)


def to_sympy(terms: dict, n: int, m: int):
    xs, ys = gens(n, m)
    expr = sympy.Integer(0)
    for (xe, ye), c in terms.items():
        mono = sympy.Integer(c)
        for v, e in zip(xs + ys, xe + ye):
            mono *= v**e
        expr += mono
    return expr


def expected_dict(expr, n: int, m: int) -> dict:
    """{exponent tuple: coefficient} of a sympy polynomial, x before y."""
    xs, ys = gens(n, m)
    expr = sympy.expand(expr)
    if not xs + ys:
        return {(): int(expr)} if expr != 0 else {}
    return {k: int(c) for k, c in sympy.Poly(expr, *(xs + ys)).as_dict().items() if c}


def kernel_dict(p: Polynomial) -> dict:
    return {tuple(t["x"]) + tuple(t["y"]): t["c"] for t in json.loads(p.to_json())["terms"]}


@st.composite
def term_dicts(draw, n, m, maxexp=3, maxterms=5):
    terms = {}
    for _ in range(draw(st.integers(0, maxterms))):
        xe = tuple(draw(st.integers(0, maxexp)) for _ in range(n))
        ye = tuple(draw(st.integers(0, maxexp)) for _ in range(m))
        c = draw(st.integers(-9, 9))
        if c:
            terms[(xe, ye)] = c
    return terms


@st.composite
def pairs(draw, nmin=1):
    n = draw(st.integers(nmin, 3))
    m = draw(st.integers(0, 2))
    return n, m, draw(term_dicts(n, m)), draw(term_dicts(n, m))


ONE_TERM = {((1, 0), (2,)): -2}
FIVE_TERMS = {((0, 0), (0,)): 1, ((1, 0), (0,)): 3, ((0, 2), (1,)): -1,
              ((1, 1), (1,)): 2, ((0, 0), (3,)): -4}


@pytest.mark.parametrize("n, m", [(1, 0), (2, 1), (3, 2)])
def test_constructors_match_sympy(n, m):
    xs, ys = gens(n, m)
    assert kernel_dict(Polynomial.zero(n, m)) == {}
    assert kernel_dict(Polynomial.one(n, m)) == expected_dict(sympy.Integer(1), n, m)
    assert kernel_dict(Polynomial.const(-7, n, m)) == expected_dict(sympy.Integer(-7), n, m)
    assert kernel_dict(Polynomial.const(0, n, m)) == {}
    for i in range(1, n + 1):
        assert kernel_dict(Polynomial.var_x(i, n, m)) == expected_dict(xs[i - 1], n, m)
    for j in range(1, m + 1):
        assert kernel_dict(Polynomial.var_y(j, n, m)) == expected_dict(ys[j - 1], n, m)


@EXAMPLES
@given(pairs())
# the shorter factor is looped outside, whichever side it is on
@example((2, 1, ONE_TERM, FIVE_TERMS))
@example((2, 1, FIVE_TERMS, ONE_TERM))
# (x1 - y1)(x1 + y1): the cross terms cancel
@example((1, 1, {((1,), (0,)): 1, ((0,), (1,)): -1}, {((1,), (0,)): 1, ((0,), (1,)): 1}))
def test_ring_operations_match_sympy(case):
    n, m, a, b = case
    f, g = Polynomial(n, m, a), Polynomial(n, m, b)
    sf, sg = to_sympy(a, n, m), to_sympy(b, n, m)
    assert kernel_dict(f * g) == expected_dict(sf * sg, n, m)
    assert kernel_dict(f + g) == expected_dict(sf + sg, n, m)
    assert kernel_dict(f - g) == expected_dict(sf - sg, n, m)
    assert kernel_dict(f.scale(-3)) == expected_dict(-3 * sf, n, m)
    assert kernel_dict(f.scale(0)) == {}


@EXAMPLES
@given(pairs(), st.data())
def test_remainder_add_product_matches_sympy(case, data):
    n, m, a, b = case
    held = data.draw(term_dicts(n, m))  # what the accumulator holds before the product
    r = Remainder(Polynomial(n, m, held))
    r.add_product(Polynomial(n, m, a), Polynomial(n, m, b))
    expect = to_sympy(held, n, m) + to_sympy(a, n, m) * to_sympy(b, n, m)
    assert kernel_dict(r.polynomial()) == expected_dict(expect, n, m)


def test_remainder_add_product_where_terms_cancel():
    # -x1^2 + (x1 - y1)(x1 + y1): the cross terms cancel in the product, x1^2 in the sum
    held = {((2,), (0,)): -1}
    a, b = {((1,), (0,)): 1, ((0,), (1,)): -1}, {((1,), (0,)): 1, ((0,), (1,)): 1}
    r = Remainder(Polynomial(1, 1, held))
    r.add_product(Polynomial(1, 1, a), Polynomial(1, 1, b))
    expect = to_sympy(held, 1, 1) + to_sympy(a, 1, 1) * to_sympy(b, 1, 1)
    assert kernel_dict(r.polynomial()) == expected_dict(expect, 1, 1) == {(0, 2): -1}


def canonical(n: int, m: int, terms: dict) -> tuple:
    """The ambient and the sorted list of nonzero terms of a term dict."""
    return n, m, sorted((k, c) for k, c in terms.items() if c)


@EXAMPLES
@given(pairs(), st.data())
@example((1, 0, {}, {}), None)  # two zero polynomials
@example((2, 1, FIVE_TERMS, {}), None)
def test_equality_holds_exactly_when_the_term_lists_and_ambients_agree(case, data):
    n, m, a, b = case
    if data is not None:
        # b itself, a, or a with its coefficients redrawn: as many terms as a, maybe equal
        recoefficient = {k: data.draw(st.sampled_from([c, -c, 2 * c])) for k, c in a.items()}
        b = data.draw(st.sampled_from([b, a, recoefficient]))
    # g over one more y variable, which no term uses, has b's terms in another ambient
    mg = m + 1 if data is not None and data.draw(st.booleans()) else m
    b = {(xe, ye + (0,) * (mg - m)): c for (xe, ye), c in b.items()}
    # g is b with extra added and taken off again: its dict holds dead slots where the terms of
    # extra were deleted
    extra = Polynomial(n, mg, {((3,) * n, (3,) * mg): 1, ((0,) * n, (2,) * mg): -4})
    g = Polynomial(n, mg, b) + extra - extra
    f = Polynomial(n, m, a)
    want = canonical(n, m, a) == canonical(n, mg, b)
    assert (f == g) == (g == f) == want
    assert (f != g) == (not want)
    assert (g - g == Polynomial.zero(n, mg)) and (f == f)


@pytest.mark.parametrize("shorter_first", [True, False])
def test_remainder_add_product_at_the_limit_is_rejected_as_mul_is(shorter_first):
    # x_1^(EXP_LIMIT - 1) times x_1 + y_1: the term x_1^EXP_LIMIT is out of range
    f = Polynomial(1, 1, {((EXP_LIMIT - 1,), (0,)): 1})
    g = Polynomial(1, 1, {((1,), (0,)): 1, ((0,), (1,)): 1})
    f, g = (f, g) if shorter_first else (g, f)
    with pytest.raises(ExponentRangeError) as by_mul:
        f * g
    with pytest.raises(ExponentRangeError) as by_add_product:
        Remainder(Polynomial(1, 1, {((1,), (1,)): 3})).add_product(f, g)
    message = f"a product exponent reaches {EXP_LIMIT}"
    assert str(by_add_product.value) == str(by_mul.value) == message


def ring_d(f, i):
    """d_i(f) for f in a sparse sympy ring whose gens start x_1..x_n: the exact quotient
    (f - s_i f) / (x_i - x_{i+1}), which raises unless it divides."""
    swapped = f.ring.from_dict({k[:i - 1] + (k[i], k[i - 1]) + k[i + 1:]: c for k, c in f.items()})
    return (f - swapped).exquo(f.ring.gens[i - 1] - f.ring.gens[i])


def sympy_d(expr, i, n, m) -> dict:
    """{exponent tuple: coefficient}, x before y, of d_i(expr), taken in a sparse sympy ring."""
    xs, ys = gens(n, m)
    ring, *_ = sympy.ring(xs + ys, sympy.ZZ)
    return {k: int(c) for k, c in ring_d(ring.from_expr(expr), i).items()}


@EXAMPLES
@given(pairs(nmin=2), st.data())
def test_divided_difference_and_isobaric_match_sympy(case, data):
    n, m, a, _ = case
    i = data.draw(st.integers(1, n - 1))
    f, sf = Polynomial(n, m, a), to_sympy(a, n, m)
    xs, _ = gens(n, m)
    assert kernel_dict(diffops.divided_difference(f, i)) == sympy_d(sf, i, n, m)
    assert kernel_dict(diffops.isobaric(f, i)) == sympy_d((1 - xs[i]) * sf, i, n, m)


@EXAMPLES
@given(pairs(nmin=2), st.data())
def test_pibar_double_matches_sympy(case, data):
    n, m, a, _ = case
    if m == 0:
        m, a = 1, {(xe, (0,)): c for (xe, _), c in a.items()}
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(1, m))
    f, sf = Polynomial(n, m, a), to_sympy(a, n, m)
    xs, ys = gens(n, m)
    factor = xs[i - 1] + ys[j - 1] - xs[i - 1] * ys[j - 1]
    expect = sympy_d((1 - xs[i]) * factor * sf, i, n, m)
    assert kernel_dict(diffops.pibar_double(f, i, j)) == expect


# d_i(L f) for the operators not covered above, with L in sympy; a, b, y stand
# for x_i, x_{i+1}, y_j.  The kernel computes each as f + s_i(L) d_i(f).  The
# y = -1 step is the tests' own (neg1.py), the reference of the Theorem 12 walk.
UNFUSED = {
    "demazure": lambda a, b, y: a,
    "demazure_lascoux": lambda a, b, y: (1 - b) * a,
    "pi_double": lambda a, b, y: a + y,
    "pi_double_neg1": lambda a, b, y: a - 1,
}
# every operator, d_i itself (L = 1) included, for the fixed cases below
OPERATORS = {**UNFUSED, "divided_difference": lambda a, b, y: 1,
             "isobaric": lambda a, b, y: 1 - b,
             "pibar_double": lambda a, b, y: (1 - b) * (a + y - a * y)}
DOUBLED = {"pi_double", "pibar_double"}


def operator_matches_sympy(op, n, m, a, i, j):
    f, sf = Polynomial(n, m, a), to_sympy(a, n, m)
    xs, ys = gens(n, m)
    expect = sympy_d(OPERATORS[op](xs[i - 1], xs[i], ys[j - 1] if j else None) * sf, i, n, m)
    fn = getattr(neg1 if op == "pi_double_neg1" else diffops, op)
    got = fn(f, i, j) if op in DOUBLED else fn(f, i)
    return kernel_dict(got) == expect


@pytest.mark.parametrize("op", sorted(UNFUSED))
@EXAMPLES
@given(pairs(nmin=2), st.data())
def test_fused_operators_match_sympy(op, case, data):
    n, m, a, _ = case
    doubled = op in DOUBLED
    if doubled and m == 0:
        m, a = 1, {(xe, (0,)): c for (xe, _), c in a.items()}
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(1, m)) if doubled else 0
    assert operator_matches_sympy(op, n, m, a, i, j)


# f symmetric in x_1, x_2, so d_1(f) = 0 and every operator returns f
SYMMETRIC = {((1, 1), (0,)): 2, ((1, 0), (1,)): -1, ((0, 1), (1,)): -1, ((0, 0), (2,)): 5}


@pytest.mark.parametrize("op, n, m, a", [
    # dbar_1(x_1) = x_1 + (1 - x_1) = 1: g d_1(f) cancels the one term of f
    ("isobaric", 2, 0, {((1, 0), ()): 1}),
    *[(op, 2, 1, SYMMETRIC) for op in sorted(OPERATORS)],
])
def test_operators_match_sympy_where_terms_cancel(op, n, m, a):
    assert operator_matches_sympy(op, n, m, a, 1, 1 if op in DOUBLED else 0)


def test_fused_output_at_the_limit_is_rejected():
    # y_1^(EXP_LIMIT - 1) survives d_1 and meets the y_1 of g in the output
    f = Polynomial(2, 1, {((1, 0), (EXP_LIMIT - 1,)): 1})
    with pytest.raises(ExponentRangeError, match=f"an exponent of the result reaches {EXP_LIMIT}"):
        diffops.pibar_double(f, 1, 1)
    # the same exponent in x_2 stays below the limit: x_2 of g meets d_1 of x_2^e
    top = Polynomial(2, 0, {((0, EXP_LIMIT - 1), ()): 1})
    assert diffops.demazure_lascoux(top, 1).max_exponent() == EXP_LIMIT - 1


def sympy_add_times_d(a, b, i, n, m) -> dict:
    """f + g d_i(f) in a sparse sympy ring, d_i(f) the exact quotient (f - s_i f) / (x_i - x_{i+1})."""
    xs, ys = gens(n, m)
    ring, *_ = sympy.ring(xs + ys, sympy.ZZ)
    f, g = (ring.from_dict({xe + ye: c for (xe, ye), c in t.items()}) for t in (a, b))
    return {k: int(c) for k, c in (f + g * ring_d(f, i)).items()}


@st.composite
def shared_pair_cases(draw):
    """(n, m, f, g, i), exponents up to 40; several terms of f share one exponent pair (a, b)
    of x_i and x_{i+1}, so the kernel merges that pair's image once and reuses it."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    i = draw(st.integers(1, n - 1))
    f = draw(term_dicts(n, m, maxexp=40, maxterms=3))
    a, b = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    for _ in range(draw(st.integers(2, 4))):
        xe = [draw(st.integers(0, 40)) for _ in range(n)]
        xe[i - 1 : i + 1] = a, b
        f[tuple(xe), tuple(draw(st.integers(0, 40)) for _ in range(m))] = draw(
            st.integers(1, 9) | st.integers(-9, -1))
    return n, m, f, draw(term_dicts(n, m, maxexp=40, maxterms=4)), i


# x_1^7 x_2^2 three times over, x_1^2 x_2^7 (the same pair swapped) and a symmetric term
SHARED_PAIR = {((7, 2, 0), (0,)): 3, ((7, 2, 1), (0,)): -2, ((7, 2, 0), (4,)): 1,
               ((2, 7, 3), (0,)): 5, ((4, 4, 1), (1,)): 6}


@EXAMPLES
@given(shared_pair_cases())
@example((3, 1, SHARED_PAIR, {((0, 1, 0), (1,)): 2, ((1, 0, 0), (0,)): -1, ((0, 0, 0), (0,)): 1}, 1))
def test_add_times_divided_difference_matches_sympy(case):
    n, m, a, b, i = case
    got = Polynomial(n, m, a).add_times_divided_difference(Polynomial(n, m, b), i)
    assert kernel_dict(got) == sympy_add_times_d(a, b, i, n, m)


@pytest.mark.parametrize("g", ["x_i - x_{i+1}", "zero"])
@pytest.mark.parametrize("i", [1, 2])
def test_add_times_divided_difference_edge_cases_match_sympy(g, i):
    # g = x_i - x_{i+1} gives f + (f - s_i f) = 2 f - s_i f; g = 0 gives f
    def x(k):
        return tuple(int(v == k) for v in range(1, 4)), (0,)

    f = Polynomial(3, 1, SHARED_PAIR)
    b = {} if g == "zero" else {x(i): 1, x(i + 1): -1}
    got = f.add_times_divided_difference(Polynomial(3, 1, b), i)
    assert kernel_dict(got) == sympy_add_times_d(SHARED_PAIR, b, i, 3, 1)
    if g == "zero":
        assert got == f


def test_divided_difference_at_the_limit_matches_its_closed_form():
    # d_1(x_1^N) = sum over k < N of x_1^k x_2^(N - 1 - k), with N = EXP_LIMIT - 1
    top = EXP_LIMIT - 1
    got = diffops.divided_difference(Polynomial(2, 0, {((top, 0), ()): 1}), 1)
    assert kernel_dict(got) == {(k, top - 1 - k): 1 for k in range(top)}


def test_no_operator_forms_the_divided_difference_of_f(monkeypatch):
    # every operator adds g d_i(f) into f without building d_i(f); only d_i itself calls it
    def refuse(self, i):
        raise AssertionError("d_i(f) was formed")

    monkeypatch.setattr(Polynomial, "_divided_difference", refuse)
    f = Polynomial(3, 1, SHARED_PAIR)
    for op in sorted(OPERATORS):
        fn = getattr(neg1 if op == "pi_double_neg1" else diffops, op)
        if op == "divided_difference":
            with pytest.raises(AssertionError, match="was formed"):
                fn(f, 1)
        else:
            assert isinstance(fn(f, 1, 1) if op in DOUBLED else fn(f, 1), Polynomial), op


@EXAMPLES
@given(pairs(), st.integers(-2, 2))
def test_y_specializations_match_sympy(case, c):
    n, m, a, _ = case
    f, sf = Polynomial(n, m, a), to_sympy(a, n, m)
    _, ys = gens(n, m)
    assert kernel_dict(f.substitute_y(c)) == expected_dict(sf.subs({y: c for y in ys}), n, 0)
    assert kernel_dict(f.negate_y()) == expected_dict(sf.subs({y: -y for y in ys}), n, m)


@pytest.mark.parametrize("extra", [-1, 0, 2], ids=["p<n", "p=n", "p>n"])
@EXAMPLES
@given(st.tuples(st.integers(2, 3), st.integers(1, 2)).flatmap(
    lambda nm: st.tuples(st.just(nm), term_dicts(*nm))))
def test_restrict_x_matches_sympy(extra, case):
    # p < n drops every term with x_{p+1}..x_n; p > n pads with absent x variables
    (n, m), a = case
    p = n + extra
    xs, _ = gens(n, m)
    expect = to_sympy(a, n, m).subs({v: 0 for v in xs[p:]}, simultaneous=True)
    assert kernel_dict(Polynomial(n, m, a).restrict_x(p)) == expected_dict(expect, p, m)


@EXAMPLES
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_dicts(n, 0))),
       st.integers(3, 4))
def test_flip_matches_sympy(case, mcap):
    n, a = case
    f, sf = Polynomial(n, 0, a), to_sympy(a, n, 0)
    xs, _ = gens(n, 0)
    reflected = sf.subs({xs[k]: 1 / xs[n - 1 - k] for k in range(n)}, simultaneous=True)
    expect = sympy.cancel(sympy.Mul(*(v**mcap for v in xs)) * reflected)
    assert kernel_dict(f.flip(mcap)) == expected_dict(expect, n, 0)


def sympy_flip(terms, n, mcap):
    sf = to_sympy(terms, n, 0)
    xs, _ = gens(n, 0)
    reflected = sf.subs({xs[k]: 1 / xs[n - 1 - k] for k in range(n)}, simultaneous=True)
    return expected_dict(sympy.cancel(sympy.Mul(*(v**mcap for v in xs)) * reflected), n, 0)


@pytest.mark.parametrize("n, terms, mcap", [
    (3, {((0, 2, EXP_LIMIT - 1), ()): 5, ((1, 0, 0), ()): -1}, EXP_LIMIT - 1),
    (2, {((0, 0), ()): 1}, EXP_LIMIT - 1),
    (1, {((0,), ()): 2, ((3,), ()): -7}, 3),
    (1, {((2,), ()): 1}, 5),
    (2, {}, 3),
    (1, {}, 0),
])
def test_flip_edge_cases_match_sympy(n, terms, mcap):
    assert kernel_dict(Polynomial(n, 0, terms).flip(mcap)) == sympy_flip(terms, n, mcap)


@pytest.mark.parametrize("n, mcap", [(1, 0), (1, 3), (3, 3), (2, EXP_LIMIT - 2)])
def test_flip_rejects_an_exponent_one_over_the_cap(n, mcap):
    for k in range(n):
        xe = tuple(mcap + 1 if v == k else 0 for v in range(n))
        f = Polynomial(n, 0, {((0,) * n, ()): 1, (xe, ()): 1})
        with pytest.raises(ValueError, match=f"exceeds cap {mcap}"):
            f.flip(mcap)


@EXAMPLES
@given(pairs())
def test_lowest_degree_part_and_canonical_order_match_sympy(case):
    n, m, a, _ = case
    f, sf = Polynomial(n, m, a), to_sympy(a, n, m)
    xs, ys = gens(n, m)
    if a and expected_dict(sf, n, m):
        # the lowest coefficient in t of f(t x, t y)
        t = sympy.Symbol("t")
        scaled = sympy.Poly(sympy.expand(sf.subs({v: t * v for v in xs + ys},
                                                 simultaneous=True)), t)
        low = min(k for (k,) in scaled.as_dict())
        expect = scaled.as_dict()[(low,)]
        assert kernel_dict(f.lowest_degree_part()) == expected_dict(expect, n, m)
    if xs + ys and expected_dict(sf, n, m):
        # sympy's grlex, read from smallest to largest, is the canonical order
        order = [mono for mono, _ in reversed(sympy.Poly(sf, *(xs + ys)).terms(order="grlex"))]
        assert list(kernel_dict(f)) == order


def sympy_swap_x(P, i):
    """s_i P for a sympy Poly: exchange the exponents of x_i and x_{i+1}."""
    def s(k):
        return k[:i - 1] + (k[i], k[i - 1]) + k[i + 1:]
    return sympy.Poly.from_dict({s(k): c for k, c in P.as_dict().items()}, P.gens, domain=P.domain)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_double_grothendieck_matches_a_sympy_recursion(n):
    """G_w for every w in S_n, computed in sympy alone and compared with the kernel.

    Start from the staircase G_{w0} = prod_{i+j<=n} (x_i + y_j - x_i y_j) and walk the
    weak order down breadth-first: at a descent i of w, G_{w s_i} = dbar_i G_w, with
    dbar_i f = ((1 - x_{i+1}) f - s_i((1 - x_{i+1}) f)) / (x_i - x_{i+1}), an exact quotient.
    """
    xs, ys = gens(n, n)
    ring = xs + ys

    def poly(expr):
        return sympy.Poly(expr, *ring, domain=sympy.ZZ)

    w0 = tuple(range(n, 0, -1))
    G = {w0: poly(sympy.prod([xs[i] + ys[j] - xs[i] * ys[j]
                              for i in range(n) for j in range(n - 1 - i)]))}
    queue = deque([w0])
    while queue:
        w = queue.popleft()
        for i in range(1, n):
            u = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
            if w[i - 1] > w[i] and u not in G:
                f = poly(1 - xs[i]) * G[w]
                G[u] = (f - sympy_swap_x(f, i)).exquo(poly(xs[i - 1] - xs[i]))
                queue.append(u)
    assert sorted(G) == sorted(permutations(range(1, n + 1)))
    for w, P in G.items():
        assert kernel_dict(families.double_grothendieck(w)) == {
            k: int(c) for k, c in P.as_dict().items()
        }, w
