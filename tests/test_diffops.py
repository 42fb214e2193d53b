"""Tests for the divided difference operator algebra."""

import random

import pytest

from orthodontia import diffops, families
from orthodontia.polyring import Polynomial
from orthodontia.suites import random_polynomial


def swap_x(f, i):
    """s_i f: exchange x_i and x_{i+1}."""
    terms = {}
    for (xe, ye), c in f.to_dict().items():
        xl = list(xe)
        xl[i - 1], xl[i] = xl[i], xl[i - 1]
        terms[(tuple(xl), ye)] = c
    return Polynomial(f.n, f.m, terms)


def x(i, n=3, m=0):
    return Polynomial.var_x(i, n, m)


def y(j, n=3, m=3):
    return Polynomial.var_y(j, n, m)


def test_divided_difference_examples():
    assert diffops.divided_difference(x(1), 1) == Polynomial.one(3)
    assert diffops.divided_difference(x(1) * x(1) * x(2), 1) == x(1) * x(2)
    assert not diffops.divided_difference(x(3), 1)
    # symmetric input is annihilated
    assert not diffops.divided_difference(x(1) * x(2), 1)


def test_divided_difference_matches_global_definition():
    # (f - s_i f) = (x_i - x_{i+1}) * d_i(f), exactly
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(2, 4)
        m = rng.choice([0, 2])
        f = random_polynomial(rng, n, m)
        i = rng.randint(1, n - 1)
        d = diffops.divided_difference(f, i)
        lhs = f - swap_x(f, i)
        rhs = (Polynomial.var_x(i, n, m) - Polynomial.var_x(i + 1, n, m)) * d
        assert lhs == rhs


def test_divided_difference_range_check():
    with pytest.raises(IndexError):
        diffops.divided_difference(x(1), 3)


def test_demazure_example():
    assert diffops.demazure(x(1), 1) == x(1) + x(2)


def test_isobaric_variants_agree_with_definitions():
    rng = random.Random(22)
    one = None
    for _ in range(40):
        n = rng.randint(2, 4)
        f = random_polynomial(rng, n, 0)
        i = rng.randint(1, n - 1)
        one = Polynomial.one(n)
        xi = Polynomial.var_x(i, n)
        xi1 = Polynomial.var_x(i + 1, n)
        assert diffops.isobaric(f, i) == diffops.divided_difference((one - xi1) * f, i)
        assert diffops.demazure_lascoux(f, i) == diffops.isobaric(xi * f, i)
        assert diffops.demazure(f, i) == diffops.divided_difference(xi * f, i)


def test_doubled_operators():
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.randint(2, 3), rng.randint(1, 3)
        f = random_polynomial(rng, n, m)
        i, j = rng.randint(1, n - 1), rng.randint(1, m)
        xi = Polynomial.var_x(i, n, m)
        yj = Polynomial.var_y(j, n, m)
        assert diffops.pi_double(f, i, j) == diffops.divided_difference((xi + yj) * f, i)
        assert diffops.pibar_double(f, i, j) == diffops.isobaric(
            (xi + yj - xi * yj) * f, i
        )


def test_omega_products():
    # omega_2^{1} unbarred = (x1 + y1)(x2 + y1)
    w = diffops.omega(2, {1}, False, 2, 1)
    x1 = Polynomial.var_x(1, 2, 1)
    x2 = Polynomial.var_x(2, 2, 1)
    y1 = Polynomial.var_y(1, 2, 1)
    assert w == (x1 + y1) * (x2 + y1)
    wb = diffops.omega(2, {1}, True, 2, 1)
    assert wb == (x1 + y1 - x1 * y1) * (x2 + y1 - x2 * y1)
    assert diffops.omega(2, set(), True, 2, 1) == Polynomial.one(2, 1)
    with pytest.raises(IndexError):
        diffops.omega(1, {2}, True, 2, 1)


def test_phi():
    f = Polynomial.one(3)
    x1, x2, x3 = (Polynomial.var_x(i, 3) for i in (1, 2, 3))
    one = Polynomial.one(3)
    assert diffops.phi(f, 1) == x1 * (one - x2) * (one - x3)
    assert diffops.phi(f, 3) == x1 * x2 * x3
    # one product by the cached factor equals the factor-by-factor product
    rng = random.Random(24)
    for n in range(5):
        for i in range(n + 1):
            f = random_polynomial(rng, n, 0) if n else Polynomial.const(rng.randint(-5, 5), 0)
            want = f
            for j in range(1, n + 1):
                xj = Polynomial.var_x(j, n)
                want = want * (xj if j <= i else Polynomial.one(n) - xj)
            assert diffops.phi(f, i) == want, (n, i)
    with pytest.raises(ValueError):
        diffops.phi(Polynomial.one(2, 1), 1)



def _muls(sizes, factors):
    """The records (len(a.terms), len(b.terms), str(b)) of a * b, zipped from their parts."""
    return [(a, b, f) for (a, b), f in zip(sizes, factors)]


# the record of every a * b made while each fixed product is built, frozen when the products
# were hand-written loops: a fold must multiply the same factors in the same order.  b names
# the factor, so a reordering that keeps every size (the staircase transposed) shows too
FIXED_PRODUCT_MULS = {
    "staircase-barred": (lambda: families._staircase_double(4, True), _muls(
        [(1, 1), (1, 3), (1, 1), (3, 3), (1, 1), (8, 3), (1, 1), (20, 3), (1, 1), (52, 3),
         (1, 1), (113, 3)],
        ["y1", "y1 + x1 - x1*y1", "y2", "y2 + x1 - x1*y2", "y3", "y3 + x1 - x1*y3",
         "y1", "y1 + x2 - x2*y1", "y2", "y2 + x2 - x2*y2", "y1", "y1 + x3 - x3*y1"])),
    "staircase": (lambda: families._staircase_double(4, False), _muls(
        [(1, 2), (2, 2), (4, 2), (8, 2), (16, 2), (30, 2)],
        ["-y1 + x1", "-y2 + x1", "-y3 + x1", "-y1 + x2", "-y2 + x2", "-y1 + x3"])),
    "omega": (lambda: diffops.omega(3, {1, 2}, True, 3, 2), _muls(
        [(1, 1), (1, 3), (1, 1), (3, 3), (1, 1), (8, 3), (1, 1), (20, 3), (1, 1), (52, 3),
         (1, 1), (113, 3)],
        ["y1", "y1 + x1 - x1*y1", "y1", "y1 + x2 - x2*y1", "y1", "y1 + x3 - x3*y1",
         "y2", "y2 + x1 - x1*y2", "y2", "y2 + x2 - x2*y2", "y2", "y2 + x3 - x3*y2"])),
    "phi-factor": (lambda: diffops._phi_factor.__wrapped__(2, 4), _muls(
        [(1, 1), (1, 1), (1, 2), (2, 2)], ["x1", "x2", "1 - x3", "1 - x4"])),
}


@pytest.mark.parametrize("name", FIXED_PRODUCT_MULS)
def test_fixed_products_multiply_their_factors_in_order(name, monkeypatch):
    build, want = FIXED_PRODUCT_MULS[name]
    made = []
    mul = Polynomial.__mul__

    def recorded(a, b):
        made.append((len(a.terms), len(b.terms), str(b)))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    build()
    assert made == want
