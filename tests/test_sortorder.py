"""Tests for primary column data and the orthodontic sort order."""

import pytest

from orthodontia import permcomb, sortorder
from orthodontia.diagrams import bits


def test_primary_column_data_worked_example():
    w = (6, 8, 3, 4, 2, 7, 5, 1)
    pcd = sortorder.primary_column_data(w)
    assert (pcd.h, bits(pcd.C), pcd.alpha, pcd.i1, pcd.beta) == (4, [1, 2, 6], 2, 5, 3)
    assert pcd.window == 0b11100
    assert pcd.sigma == (2, 3, 1)
    assert pcd.sort == (6, 8, 2, 3, 4, 7, 5, 1)
    assert not pcd.is_sorted


def test_primary_column_data_dominant_degenerate():
    pcd = sortorder.primary_column_data((3, 2, 1))
    assert (pcd.h, pcd.C, pcd.alpha, pcd.i1, pcd.beta) == (3, 0, 0, 3, 3)


def test_sigma_of_dominant_is_w_itself():
    # the window is all of [n], so only the identity is sorted among
    # dominant permutations
    pcd = sortorder.primary_column_data((2, 1))
    assert (pcd.window, pcd.sigma, pcd.sort) == (0b110, (2, 1), (1, 2))
    assert not pcd.is_sorted
    assert sortorder.primary_column_data((1, 2, 3)).is_sorted


def test_sigma_always_dominant():
    for w in permcomb.all_perms(5):
        # dominant: 132-avoiding
        assert permcomb.avoids_pattern(sortorder.primary_column_data(w).sigma, (1, 3, 2))


def test_sort_of_permutes_window_only():
    for w in (w for n in range(1, 7) for w in permcomb.all_perms(n)):
        pcd = sortorder.primary_column_data(w)
        rows = w[pcd.alpha:pcd.i1]
        # w maps the rows alpha+1..i1 onto the window h-beta+1..h
        assert set(rows) == set(bits(pcd.window)) == set(range(pcd.h - pcd.beta + 1, pcd.h + 1))
        # w_sort sorts exactly those rows
        assert pcd.sort == w[:pcd.alpha] + tuple(sorted(rows)) + w[pcd.i1:]
        # sigma(w) is that bijection renumbered to [beta]
        lowest = min(bits(pcd.window))
        assert pcd.sigma == tuple(v - lowest + 1 for v in rows)
        assert pcd.is_sorted == (pcd.sigma == permcomb.identity(pcd.beta))


def test_os_covers_identity_empty():
    w = (1, 2, 3)
    assert sortorder.os_covers(w, sortorder.primary_column_data(w)) is None


def test_os_covers_unsorted_gives_sort():
    w = (6, 8, 3, 4, 2, 7, 5, 1)
    assert sortorder.os_covers(w, sortorder.primary_column_data(w)) == (6, 8, 2, 3, 4, 7, 5, 1)


def test_os_covers_sorted_gives_s_product():
    # w = 1342 is sorted (sigma is the identity); predecessor is
    # w s_{i1} ... s_{alpha+1}
    w = (1, 3, 4, 2)
    pcd = sortorder.primary_column_data(w)
    assert pcd.is_sorted
    u = w
    for j in range(pcd.i1, pcd.alpha, -1):
        u = permcomb.right_multiply_s(u, j)
    assert sortorder.os_covers(w, pcd) == u


def test_os_covers_endpoint_validation():
    with pytest.raises(ValueError):
        sortorder.os_covers((2, 1), sortorder.primary_column_data((2, 1)), endpoint="gamma")


def test_os_order_descends_to_identity():
    # repeatedly taking the unique predecessor terminates at the identity
    for w in permcomb.all_perms(4):
        seen = set()
        u = w
        while u != permcomb.identity(4):
            assert u not in seen
            seen.add(u)
            u = sortorder.os_covers(u, sortorder.primary_column_data(u))
            assert len(seen) <= 100
