"""Tests for the exact sparse polynomial ring."""

import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthodontia import diffops
from orthodontia.polyring import (
    EXP_LIMIT, JSON_BATCH, AmbientMismatch, ExponentRangeError, Polynomial, Remainder,
)
from orthodontia.suites import random_polynomial


@st.composite
def polys(draw, n=2, m=1):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        xe = tuple(draw(st.integers(0, 3)) for _ in range(n))
        ye = tuple(draw(st.integers(0, 3)) for _ in range(m))
        c = draw(st.integers(-9, 9))
        if c:
            terms[(xe, ye)] = c
    return Polynomial(n, m, terms)


def total_degree(p: Polynomial) -> int:
    """Maximum total degree over the terms (0 for the zero polynomial)."""
    return max((sum(xe) + sum(ye) for xe, ye in p.to_dict()), default=0)


def per_variable_degree(p: Polynomial, which: str, i: int) -> int:
    """Maximum exponent of x_i or y_i across terms."""
    part = 0 if which == "x" else 1
    return max((mon[part][i - 1] for mon in p.to_dict()), default=0)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    zero = Polynomial.zero(2, 1)
    one = Polynomial.one(2, 1)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f - f == zero
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f
    assert f * (g + h) == f * g + f * h


def test_constructors():
    x1 = Polynomial.var_x(1, 2, 1)
    y1 = Polynomial.var_y(1, 2, 1)
    assert (x1 * y1).coefficient((1, 0), (1,)) == 1
    assert Polynomial.const(3, 1, 0).to_str() == "3"
    with pytest.raises(IndexError):
        Polynomial.var_x(3, 2, 0)
    with pytest.raises(IndexError):
        Polynomial.var_y(2, 2, 1)


def test_zero_coefficients_dropped():
    p = Polynomial(1, 0, {((1,), ()): 0})
    assert not p
    q = Polynomial.var_x(1, 1) - Polynomial.var_x(1, 1)
    assert not q.terms


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        Polynomial.one(2, 0) + Polynomial.one(3, 0)
    with pytest.raises(AmbientMismatch):
        Polynomial.one(2, 1) * Polynomial.one(2, 2)
    with pytest.raises(AmbientMismatch, match=r"\(2,1\) vs \(3,1\)"):
        Polynomial.one(2, 1) - Polynomial.one(3, 1)
    with pytest.raises(AmbientMismatch):
        Polynomial.one(3, 0).add_times_divided_difference(Polynomial.one(3, 1), 1)
    with pytest.raises(AmbientMismatch):
        Remainder(Polynomial.one(2, 0)).subtract(Polynomial.one(2, 1), 1)
    with pytest.raises(AmbientMismatch):
        Remainder(Polynomial.one(2, 0)).add_product(Polynomial.one(2, 0), Polynomial.one(2, 1))
    with pytest.raises(AmbientMismatch):
        Remainder(Polynomial.one(2, 0)).add_product(Polynomial.one(2, 1), Polynomial.one(2, 0))


def test_degree_structure():
    x1 = Polynomial.var_x(1, 2, 1)
    y1 = Polynomial.var_y(1, 2, 1)
    f = x1 * x1 * y1 + x1
    assert total_degree(f) == 3
    assert f.min_degree() == 1
    assert f.lowest_degree_part() == x1
    assert per_variable_degree(f, "x", 1) == 2
    assert per_variable_degree(f, "y", 1) == 1
    assert f.max_exponent() == 2
    assert (y1 * y1 * y1 + x1).max_exponent() == 3
    assert Polynomial.zero(2, 1).max_exponent() == 0
    with pytest.raises(ValueError):
        Polynomial.zero(2, 1).min_degree()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(-3, 3))
@example(f=Polynomial.zero(2, 1), g=Polynomial.one(2, 1), c=0)
def test_remainder_subtract_and_lowest(f, g, c):
    before = dict(f.terms)
    r = Remainder(f)
    r.subtract(g, c)
    expected = f - g.scale(c)
    assert r.terms == expected.terms
    assert bool(r) == bool(expected)
    if expected:
        assert r.lowest() == next(expected.canonical_terms())
    assert f.terms == before


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_no_operand_is_mutated(f, g):
    # the kernel adds into term dicts in place; only the result's own dict may change
    before = [list(p.terms.items()) for p in (f, g)]
    f * g, f * f, f + g, f - f, f.add_times_divided_difference(g, 1)
    Remainder(f).add_product(f, g)
    for op in (diffops.isobaric, diffops.demazure, diffops.demazure_lascoux):
        op(f, 1)
    diffops.pi_double(f, 1, 1), diffops.pibar_double(f, 1, 1)
    assert [list(p.terms.items()) for p in (f, g)] == before


def test_substitute_y():
    x1 = Polynomial.var_x(1, 1, 1)
    y1 = Polynomial.var_y(1, 1, 1)
    f = x1 + y1 - x1 * y1
    assert f.substitute_y(0) == Polynomial.var_x(1, 1)
    # at y = 1 the weight x + y - xy collapses to 1
    assert f.substitute_y(1) == Polynomial.one(1)
    assert f.substitute_y(-1).to_str() == "-1 + 2*x1"


def test_negate_y_involution():
    rng = random.Random(3)
    for _ in range(20):
        f = random_polynomial(rng, 2, 2)
        assert f.negate_y().negate_y() == f
    assert Polynomial.var_y(1, 1, 1).negate_y() == Polynomial.var_y(1, 1, 1).scale(-1)


def test_flip_involution_and_degree_reversal():
    rng = random.Random(4)
    for _ in range(30):
        f = random_polynomial(rng, 3, 0, maxdeg=2)
        assert f.flip(2).flip(2) == f
    # flip exchanges lowest and highest degree parts
    f = Polynomial.var_x(1, 2) + Polynomial.var_x(1, 2) * Polynomial.var_x(2, 2)
    g = f.flip(1)
    assert total_degree(g) == 2 - f.min_degree()
    assert g.min_degree() == 2 - total_degree(f)


def test_flip_rejects_bad_input():
    with pytest.raises(ValueError):
        Polynomial.var_y(1, 1, 1).flip(2)
    with pytest.raises(ValueError):
        (Polynomial.var_x(1, 1) * Polynomial.var_x(1, 1)).flip(1)


def test_restrict_x():
    x1 = Polynomial.var_x(1, 3)
    x3 = Polynomial.var_x(3, 3)
    f = x1 + x3
    assert f.restrict_x(2) == Polynomial.var_x(1, 2)
    assert f.restrict_x(4).n == 4


def test_canonical_order_graded_then_lex():
    x1 = Polynomial.var_x(1, 2)
    x2 = Polynomial.var_x(2, 2)
    f = x2 + x1 * x1 + x1
    mons = [xe for (xe, _), _ in f.canonical_terms()]
    assert mons == [(0, 1), (1, 0), (2, 0)]


def test_json_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        f = random_polynomial(rng, 2, 2)
        assert Polynomial.from_json_dict(json.loads(f.to_json())) == f


@st.composite
def wide_polys(draw):
    """Any small ambient, exponents up to the field limit, coefficients past 2^63."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    exps = st.one_of(st.integers(0, 3), st.integers(0, EXP_LIMIT - 1))
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**130), 2**130))
    terms = draw(st.dictionaries(
        st.tuples(st.tuples(*[exps] * n), st.tuples(*[exps] * m)), coeffs, max_size=12))
    return Polynomial(n, m, terms)


def sized(k: int) -> Polynomial:
    """A polynomial with k terms whose x parts and y parts repeat across batches of JSON_BATCH."""
    return Polynomial(2, 1, {((i % 97, i // 97), (i % 3,)): i % 7 - 3 or 5 for i in range(k)})


@settings(max_examples=150, deadline=None)
@given(wide_polys())
@example(Polynomial.zero(1, 0))
@example(Polynomial.zero(2, 2))
@example(Polynomial(1, 0, {((0,), ()): -(2**64) - 1, ((3,), ()): 2**63}))
@example(Polynomial(2, 1, {((1, 0), (2,)): -5, ((0, 1), (0,)): 2**70, ((0, 0), (0,)): 1}))
# one term, and the batch boundaries of json_chunks
@example(sized(1))
@example(sized(JSON_BATCH - 1))
@example(sized(JSON_BATCH))
@example(sized(JSON_BATCH + 1))
@example(sized(2 * JSON_BATCH + 1))
def test_to_json_is_json_dumps_of_the_canonical_terms(p):
    terms = sorted(p.to_dict().items(), key=lambda t: (sum(t[0][0]) + sum(t[0][1]), t[0]))
    expected = json.dumps({"n": p.n, "m": p.m, "terms": [
        {"x": list(xe), "y": list(ye), "c": c} for (xe, ye), c in terms
    ]})
    chunks = list(p.json_chunks())
    # the header, one piece per batch of at most JSON_BATCH terms, and the closing brackets
    assert len(chunks) == 2 + -(-len(p.terms) // JSON_BATCH)
    assert "".join(chunks) == p.to_json() == expected
    assert Polynomial.from_json_dict(json.loads(p.to_json())) == p


def test_pickle_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        f = random_polynomial(rng, 2, 2)
        assert pickle.loads(pickle.dumps(f)) == f


def test_to_str():
    x1 = Polynomial.var_x(1, 2, 1)
    y1 = Polynomial.var_y(1, 2, 1)
    f = x1 + y1 - x1 * y1
    assert f.to_str() == "y1 + x1 - x1*y1"
    assert f.to_str(latex=True) == "y_1 + x_1 - x_1 y_1"
    assert Polynomial.zero(1, 0).to_str() == "0"


def test_exponents_outside_the_field_are_rejected():
    with pytest.raises(ExponentRangeError):
        Polynomial(2, 0, {((1, -1), ()): 1})
    with pytest.raises(ExponentRangeError):
        Polynomial(1, 1, {((0,), (EXP_LIMIT,)): 1})
    with pytest.raises(ExponentRangeError):
        Polynomial.from_json_dict({"n": 1, "m": 0, "terms": [{"x": [-2], "y": [], "c": 1}]})
    top = Polynomial(2, 1, {((EXP_LIMIT - 1, 0), (0,)): 1})
    assert per_variable_degree(top, "x", 1) == top.max_exponent() == EXP_LIMIT - 1
    # a product may reach a large total degree while every exponent fits
    assert total_degree(top * Polynomial.var_x(2, 2, 1)) == EXP_LIMIT
    with pytest.raises(ExponentRangeError):
        top * Polynomial.var_x(1, 2, 1)
    # just below the limit every field keeps its own value
    half = EXP_LIMIT // 2
    wide = Polynomial(2, 1, {((half - 1, 3), (half - 1,)): 2})
    assert (wide * wide).to_dict() == {((2 * half - 2, 6), (2 * half - 2,)): 4}
    with pytest.raises(ExponentRangeError):
        wide * Polynomial(2, 1, {((0, 0), (half + 1,)): 1})
