"""Tests for the polynomial family generators."""

import re
import weakref
from collections import Counter
from itertools import product

import pytest

from orthodontia import diagrams, diffops, families, permcomb
from orthodontia.polyring import ExponentRangeError, Polynomial

from diagram_sets import all_diagrams, from_cells, is_percent_avoiding
from neg1 import script_S_neg1


def longest(n):
    """The longest permutation w0 = n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def test_double_grothendieck_s2():
    g = families.double_grothendieck((2, 1))
    assert g.to_str() == "y1 + x1 - x1*y1"
    assert families.double_grothendieck((1, 2)) == Polynomial.one(2, 2)


def test_double_grothendieck_base_case():
    n = 3
    g = families.double_grothendieck(longest(n))
    expected = Polynomial.one(n, n)
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            x = Polynomial.var_x(i, n, n)
            y = Polynomial.var_y(j, n, n)
            expected = expected * (x + y - x * y)
    assert g == expected


def test_double_grothendieck_recursion_step():
    # every descent of every w in S_4 steps to the value at w s_i, so the
    # walk's choice of the first ascent does not matter
    recursions = [
        (families.double_grothendieck, diffops.isobaric),
        (families.double_schubert, diffops.divided_difference),
        (families.grothendieck, diffops.isobaric),
        (families.schubert, diffops.divided_difference),
    ]
    for w in permcomb.all_perms(4):
        for i in (i for i in range(1, len(w)) if w[i - 1] > w[i]):
            child = permcomb.right_multiply_s(w, i)
            for family, step in recursions:
                assert family(child) == step(family(w), i), (family.__name__, w, i)


def test_lascoux_and_key_recursion_step_at_every_ascent():
    for alpha in product(range(3), repeat=3):
        for i in (i for i in range(1, len(alpha)) if alpha[i - 1] < alpha[i]):
            swapped = permcomb.right_multiply_s(alpha, i)
            assert families.lascoux(alpha) == diffops.demazure_lascoux(
                families.lascoux(swapped), i
            ), (alpha, i)
            assert families.key_via_pi(alpha) == diffops.demazure(
                families.key_via_pi(swapped), i
            ), (alpha, i)


def test_cold_query_walks_one_chain(monkeypatch):
    # one chain up to w0 costs l(w0) - l(w) steps, not one per element of S_5
    for attr, obj in list(vars(families).items()):
        if attr.startswith("_") and not attr.startswith("__") and isinstance(obj, dict):
            monkeypatch.setattr(families, attr, {})
    calls = []
    isobaric = diffops.isobaric

    def counting(f, i):
        calls.append(i)
        return isobaric(f, i)

    monkeypatch.setattr(diffops, "isobaric", counting)
    w = (2, 1, 4, 5, 3)
    g = families.double_grothendieck(w)
    assert len(calls) <= permcomb.length(longest(5)) - permcomb.length(w) == 7
    assert g == families.script_G(diagrams.rothe(w))


def test_double_schubert_321():
    n = 3
    x = lambda i: Polynomial.var_x(i, n, n)
    y = lambda j: Polynomial.var_y(j, n, n)
    expected = (x(1) - y(1)) * (x(2) - y(1)) * (x(1) - y(2))
    assert families.double_schubert((3, 2, 1)) == expected


def double_schubert_via_lowest(w):
    """S_w(x, y) as the lowest degree part of G_w(x, -y)."""
    return families.double_grothendieck(w).negate_y().lowest_degree_part()


def test_double_schubert_via_lowest_agrees():
    for w in permcomb.all_perms(4):
        assert families.double_schubert(w) == double_schubert_via_lowest(w)


@pytest.mark.parametrize("sweep, query", [
    (families.double_grothendieck_sweep, families.double_grothendieck),
    (families.double_schubert_sweep, families.double_schubert),
])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_yields_each_w_once_by_non_increasing_length(sweep, query, n):
    pairs = list(sweep(n))
    ws = [w for w, _ in pairs]
    assert sorted(ws) == list(permcomb.all_perms(n))
    seen = set()
    for w in ws:  # each w != w0 comes after its first-ascent parent w s_i
        i = families._first_ascent(w)
        assert w == longest(n) if i is None else permcomb.right_multiply_s(w, i) in seen
        seen.add(w)
    assert all(f == query(w) for w, f in pairs)


def test_the_two_sweeps_enumerate_s_n_alike():
    assert ([w for w, _ in families.double_grothendieck_sweep(4)]
            == [w for w, _ in families.double_schubert_sweep(4)])


@pytest.mark.parametrize("sweep", [families.double_grothendieck_sweep,
                                   families.double_schubert_sweep])
def test_sweep_holds_only_the_values_on_its_path(sweep, monkeypatch):
    # one base and one step per w != w0, and at every yield no more values alive than the
    # l(w0) + 1 = 11 on a path from w0 down to the identity of S_5
    class Token:
        pass

    live, calls, alive_at_yield = weakref.WeakSet(), Counter(), []

    def value(kind):
        calls[kind] += 1
        token = Token()
        live.add(token)
        return token

    counted = (lambda w0: value("base"), lambda f, i: value("step"))
    monkeypatch.setattr(families, "_DOUBLE_G", counted)
    monkeypatch.setattr(families, "_DOUBLE_S", counted)
    for _, token in sweep(5):
        alive_at_yield.append(len(live))
        del token
    assert calls == {"base": 1, "step": 119}
    assert len(alive_at_yield) == 120 and max(alive_at_yield) <= 11


def test_single_schubert_examples():
    assert families.schubert((3, 2, 1)).to_str() == "x1^2*x2"
    x = lambda i: Polynomial.var_x(i, 3)
    assert families.schubert((1, 3, 2)) == x(1) + x(2)


def test_single_from_double_by_y_to_zero():
    for w in permcomb.all_perms(4):
        assert families.grothendieck(w) == families.double_grothendieck(w).substitute_y(0)
        assert families.schubert(w) == families.double_schubert(w).substitute_y(0)


def test_schubert_is_lowest_part_of_grothendieck():
    for w in permcomb.all_perms(4):
        assert families.schubert(w) == families.grothendieck(w).lowest_degree_part()


def test_lascoux_base_and_recursion():
    # weakly decreasing compositions are monomial base cases
    assert families.lascoux((2, 1, 0)) == Polynomial.monomial((2, 1, 0))
    assert families.lascoux((0, 0)) == Polynomial.one(2)
    # one pibar step from the base
    assert families.lascoux((0, 2)) == diffops.demazure_lascoux(
        families.lascoux((2, 0)), 1
    )


def test_lascoux_leading_coefficient():
    for alpha in product(range(3), repeat=3):
        assert families.lascoux(alpha).coefficient(alpha) == 1


def test_key_is_lowest_part_and_pi_recursion_agrees():
    for alpha in product(range(3), repeat=3):
        k = families.key(alpha)
        assert k == families.key_via_pi(alpha)
        assert k == families.lascoux(alpha).lowest_degree_part()


def test_key_of_a_partition_is_its_monomial():
    assert families.key((3, 1, 0)) == Polynomial.monomial((3, 1, 0))


@pytest.mark.parametrize("alpha", [(-1,), (0, -1), (-1, 0), (2, -1, 3)])
@pytest.mark.parametrize("family", ["lascoux", "key_via_pi"])
def test_a_negative_part_is_refused_by_the_base_monomial(family, alpha):
    # the chain climbs to a weakly decreasing composition, whose monomial refuses the part
    with pytest.raises(ExponentRangeError, match="exponent -1 outside"):
        getattr(families, family)(alpha)


@pytest.mark.parametrize("alpha", [(), (0,), (0, 0, 0)])
def test_key_of_zero_composition_is_one(alpha):
    assert families.key(alpha) == Polynomial.one(len(alpha), 0)


def test_script_G_matches_recursion_s4():
    for w in permcomb.all_perms(4):
        assert families.script_G(diagrams.rothe(w)) == families.double_grothendieck(w)


def test_script_G_unbarred_variant_differs():
    D = diagrams.rothe((1, 3, 2))
    assert families.script_G(D, barred_inner_omega=False) != families.double_grothendieck(
        (1, 3, 2)
    )


def test_script_S_matches_negated_schubert_s4():
    for w in permcomb.all_perms(4):
        assert families.script_S(diagrams.rothe(w)) == families.double_schubert(
            w
        ).negate_y()


def test_script_S_is_lowest_part_of_script_G():
    for w in permcomb.all_perms(4):
        D = diagrams.rothe(w)
        assert families.script_S(D) == families.script_G(D).lowest_degree_part()


def test_script_S_neg1_agrees_where_both_defined():
    for D in all_diagrams(3, 2):
        if not is_percent_avoiding(D):
            continue
        try:
            s = families.script_S(D).substitute_y(-1)
        except ValueError:
            continue
        assert script_S_neg1(D) == s


def test_script_S_rejects_out_of_range_column_index():
    # single column {2}: the recorded j index is 0
    D = from_cells(2, 1, [(2, 1)])
    for evaluate in (families.script_S, families.script_G,
                     lambda D: families.script_G(D, barred_inner_omega=False)):
        with pytest.raises(ValueError, match=re.escape("fall outside [1,1]")):
            evaluate(D)
    # but the specialized evaluator still works
    assert script_S_neg1(D)


def test_stable_grothendieck_21():
    g = families.stable_grothendieck((2, 1), 3)
    n = 3
    e = [None] * 4
    from itertools import combinations

    for r in range(1, 4):
        total = Polynomial.zero(n)
        for sub in combinations(range(1, 4), r):
            term = Polynomial.one(n)
            for i in sub:
                term = term * Polynomial.var_x(i, n)
            total = total + term
        e[r] = total
    assert g == e[1] - e[2] + e[3]


def test_stable_grothendieck_symmetric():
    # d_i g = 0 exactly when g is symmetric in x_i, x_{i+1}
    g = families.stable_grothendieck((1, 3, 2), 3)
    assert not diffops.divided_difference(g, 1)
    assert not diffops.divided_difference(g, 2)

