"""Tests for pipe dream enumeration and the weight-sum oracle."""

from collections import Counter

import pytest

from orthodontia import families, permcomb, pipedreams
from orthodontia.polyring import Polynomial


def demazure_word_of(n: int, crosses):
    """Demazure product of s_{i+j-1} over the crosses, row by row, right to left."""
    w = permcomb.identity(n)
    for i, j in sorted(crosses, key=lambda c: (c[0], -c[1])):
        w = permcomb.demazure_star(w, i + j - 1)
    return w


def fillings_by_product(n: int) -> dict:
    """Brute force: all 2^(n(n-1)/2) fillings as sorted crosses, bucketed by Demazure product."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]
    buckets = {}
    for mask in range(1 << len(cells)):
        crosses = tuple(c for k, c in enumerate(cells) if mask >> k & 1)
        buckets.setdefault(demazure_word_of(n, crosses), []).append(crosses)
    return buckets


def test_every_dream_is_sorted_staircase_cells():
    # on S_1..S_5, each cross of a dream is a cell (i, j) of the staircase, and no cell comes twice
    for w in (w for n in range(1, 6) for w in permcomb.all_perms(n)):
        n = len(w)
        for crosses in pipedreams.enumerate_pd(w):
            assert all(1 <= i and 1 <= j and i + j <= n for i, j in crosses), (w, crosses)
            assert list(crosses) == sorted(set(crosses)), (w, crosses)


def test_demazure_word_of():
    # empty filling reads to the identity
    assert demazure_word_of(3, ()) == (1, 2, 3)
    # full staircase gives w0
    assert demazure_word_of(3, ((1, 1), (1, 2), (2, 1))) == (3, 2, 1)
    # the two cells (1,2) and (2,1) both read as s_2
    assert demazure_word_of(3, ((1, 2),)) == (1, 3, 2)
    assert demazure_word_of(3, ((2, 1),)) == (1, 3, 2)


def test_enumeration_partitions_all_fillings():
    n = 5
    total = sum(len(pipedreams.enumerate_pd(w)) for w in permcomb.all_perms(n))
    assert total == 2 ** (n * (n - 1) // 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_walk_equals_brute_force_buckets(n):
    buckets = fillings_by_product(n)
    for w in permcomb.all_perms(n):
        assert pipedreams.enumerate_pd(w) == sorted(buckets[w])


def test_identity_has_single_empty_dream():
    assert pipedreams.enumerate_pd((1, 2, 3)) == [()]


def test_longest_has_single_full_dream():
    pds = pipedreams.enumerate_pd((4, 3, 2, 1))
    assert len(pds) == 1
    assert len(pds[0]) == 6


def test_pd_count_1423():
    assert len(pipedreams.enumerate_pd((1, 4, 2, 3))) == 5


def test_reduced_dreams_have_length_many_crosses():
    for w in permcomb.all_perms(4):
        lw = permcomb.length(w)
        sizes = [len(crosses) for crosses in pipedreams.enumerate_pd(w)]
        assert min(sizes) == lw


def test_weight_sum_21():
    ws = pipedreams.weight_sum((2, 1))
    assert ws.to_str() == "y1 + x1 - x1*y1"


def test_weight_sum_132_includes_signed_nonreduced_dream():
    # three dreams: {(1,2)}, {(2,1)}, and the doubled one with sign -1
    n = 3
    x = lambda i: Polynomial.var_x(i, n, n)
    y = lambda j: Polynomial.var_y(j, n, n)
    A = x(1) + y(2) - x(1) * y(2)
    B = x(2) + y(1) - x(2) * y(1)
    assert pipedreams.weight_sum((1, 3, 2)) == A + B - A * B


def test_weight_sum_matches_recursion_s4():
    for w in permcomb.all_perms(4):
        assert pipedreams.weight_sum(w) == families.double_grothendieck(w)


@pytest.mark.parametrize("n", range(1, 5))
def test_weight_sum_is_the_signed_sum_over_brute_force_fillings(n):
    # no walk: every filling of the staircase, bucketed by its Demazure product
    buckets = fillings_by_product(n)
    for w in permcomb.all_perms(n):
        total = Polynomial.zero(n, n)
        for crosses in buckets[w]:
            term = Polynomial.one(n, n)
            for i, j in crosses:
                x, y = Polynomial.var_x(i, n, n), Polynomial.var_y(j, n, n)
                term = term * -(x + y - x * y)
            total = total + term
        assert pipedreams.weight_sum(w) == (-total if permcomb.length(w) % 2 else total)


def test_weight_sum_accumulates_in_place(monkeypatch):
    # each cross adds into its state's accumulator; no product, sum or negation is built
    calls = Counter()
    for name in ("__mul__", "__add__", "__neg__"):
        def counted(*args, _op=getattr(Polynomial, name), _name=name):
            calls[_name] += 1
            return _op(*args)
        monkeypatch.setattr(Polynomial, name, counted)
    for w in permcomb.all_perms(4):
        pipedreams.weight_sum(w)
    assert calls == Counter()


def test_brute_force_cap():
    # both callers of the walk refuse n > MAX_N
    with pytest.raises(ValueError, match="too large"):
        pipedreams.enumerate_pd(tuple(range(1, pipedreams.MAX_N + 2)))
    with pytest.raises(ValueError, match="too large"):
        pipedreams.weight_sum(tuple(range(1, pipedreams.MAX_N + 2)))
