"""Tests for permutations and compositions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthodontia import permcomb


def longest(n):
    """The longest permutation w0 = n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def ascents(w):
    """Positions j with w(j) < w(j+1), i.e. l(w s_j) > l(w)."""
    return [j for j in range(1, len(w)) if w[j - 1] < w[j]]


def descents(w):
    return [j for j in range(1, len(w)) if w[j - 1] > w[j]]


def is_dominant(w):
    return permcomb.avoids_pattern(w, (1, 3, 2))


def test_check_perm_accepts_valid():
    assert permcomb.check_perm((3, 1, 2)) == (3, 1, 2)


@pytest.mark.parametrize("bad", [(1, 1), (0, 1), (2, 3), (1, 2, 4)])
def test_check_perm_rejects_invalid(bad):
    with pytest.raises(ValueError):
        permcomb.check_perm(bad)


def test_identity_and_longest():
    assert permcomb.identity(4) == (1, 2, 3, 4)
    assert longest(4) == (4, 3, 2, 1)
    assert permcomb.length(longest(5)) == 10
    assert permcomb.length(permcomb.identity(5)) == 0


def test_length_examples():
    assert permcomb.length((2, 1, 3)) == 1
    # 31542 has inversions {31,32,54,52,42}; its diagram has 5 boxes
    assert permcomb.length((3, 1, 5, 4, 2)) == 5


def test_all_perms_count():
    assert len(list(permcomb.all_perms(4))) == 24


def test_right_multiply_s():
    assert permcomb.right_multiply_s((2, 1, 3), 2) == (2, 3, 1)
    with pytest.raises(IndexError):
        permcomb.right_multiply_s((2, 1), 2)


def test_inverse_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        w = tuple(rng.sample(range(1, n + 1), n))
        inv = permcomb.inverse(w)
        assert permcomb.inverse(inv) == w
        assert tuple(w[inv[j - 1] - 1] for j in range(1, n + 1)) == permcomb.identity(n)


def test_pattern_avoidance():
    assert is_dominant((3, 1, 2))
    assert not is_dominant((1, 3, 2))
    assert permcomb.is_vexillary((1, 4, 2, 3))
    assert not permcomb.is_vexillary((2, 1, 4, 3))
    # every permutation in S_3 is vexillary
    assert all(permcomb.is_vexillary(w) for w in permcomb.all_perms(3))


def test_dominant_iff_rothe_columns_standard():
    from orthodontia import diagrams

    for w in permcomb.all_perms(4):
        cols_standard = all(
            set(diagrams.bits(col)) == set(range(1, col.bit_count() + 1))
            for col in diagrams.rothe(w).columns
        )
        assert is_dominant(w) == cols_standard


def test_demazure_star():
    # ascent: multiply through; descent: absorb
    assert permcomb.demazure_star((1, 2, 3), 1) == (2, 1, 3)
    assert permcomb.demazure_star((2, 1, 3), 1) == (2, 1, 3)


def test_demazure_star_idempotent_relation():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 6)
        w = tuple(rng.sample(range(1, n + 1), n))
        j = rng.randint(1, n - 1)
        once = permcomb.demazure_star(w, j)
        assert permcomb.demazure_star(once, j) == once


def bruhat_ideal(w):
    """Everything below w: the closure of w -> w t_ab whenever that lowers the length."""
    seen, todo = {w}, [w]
    while todo:
        v = todo.pop()
        for a in range(len(v)):
            for b in range(a + 1, len(v)):
                if v[a] > v[b]:
                    u = v[:a] + (v[b],) + v[a + 1:b] + (v[a],) + v[b + 1:]
                    if u not in seen:
                        seen.add(u)
                        todo.append(u)
    return seen


@pytest.mark.parametrize("n", range(1, 6))
def test_bruhat_le_is_the_bruhat_order(n):
    perms = list(permcomb.all_perms(n))
    for w in perms:
        below = bruhat_ideal(w)
        assert [u for u in perms if permcomb.bruhat_le(u, w)] == [u for u in perms if u in below]


def test_shift():
    assert permcomb.shift((2, 1), 2) == (1, 2, 4, 3)
    assert permcomb.length(permcomb.shift((3, 1, 2), 4)) == permcomb.length((3, 1, 2))


def test_ascents_descents_partition():
    for w in permcomb.all_perms(5):
        a, d = ascents(w), descents(w)
        assert sorted(a + d) == list(range(1, 5))


def test_format_parse_perm_roundtrip():
    for w in [(3, 1, 2), (1,), tuple(range(12, 0, -1))]:
        assert permcomb.parse_perm(permcomb.format_perm(w)) == w
    assert permcomb.format_perm((3, 1, 5, 4, 2)) == "31542"
    assert permcomb.parse_perm("10,2,3,4,5,6,7,8,9,1")[0] == 10


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_format_parse_perm_roundtrip_fuzzed(w):
    w = tuple(w)
    assert permcomb.parse_perm(permcomb.format_perm(w)) == w


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8).map(tuple))
def test_parse_comp_roundtrip_fuzzed(alpha):
    assert permcomb.parse_comp(",".join(map(str, alpha))) == alpha


def test_format_parse_comp():
    assert permcomb.parse_comp("0,2,1") == (0, 2, 1)
    with pytest.raises(ValueError):
        permcomb.parse_comp("1,-2")


def test_comp_swap():
    # right_multiply_s swaps the parts of a composition as it does a permutation's
    assert permcomb.right_multiply_s((0, 2, 1), 1) == (2, 0, 1)
    with pytest.raises(IndexError):
        permcomb.right_multiply_s((1, 2), 2)
