"""Tests for diagrams and the double orthodontia algorithm."""

import hashlib
from itertools import combinations, product

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from orthodontia import diagrams, permcomb
from orthodontia.cli import main
from orthodontia.diagrams import Diagram

from diagram_sets import all_diagrams, from_cells


def size(D):
    return sum(len(col) for col in D.columns)


def row_counts(D):
    """Number of boxes in each row (the exponent vector of x^D)."""
    counts = [0] * D.nrows
    for col in D.columns:
        for i in col:
            counts[i - 1] += 1
    return tuple(counts)


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram(2, (frozenset({3}),))
    D = Diagram(3, (frozenset({1, 3}), frozenset()))
    assert D.ncols == 2
    assert list(D.cells()) == [(1, 1), (3, 1)]
    assert size(D) == 2
    assert row_counts(D) == (1, 0, 1)


def test_from_cells():
    D = from_cells(3, 2, [(1, 1), (3, 2)])
    assert D.columns == (frozenset({1}), frozenset({3}))


def test_rothe_31542():
    D = diagrams.rothe((3, 1, 5, 4, 2))
    assert [sorted(c) for c in D.columns] == [[1], [1, 3, 4], [], [3], []]


def test_rothe_size_is_length():
    for w in permcomb.all_perms(5):
        assert size(diagrams.rothe(w)) == permcomb.length(w)


def test_rothe_dominant_gives_partition_columns():
    D = diagrams.rothe((3, 2, 1))
    assert [sorted(c) for c in D.columns] == [[1, 2], [1], []]


def test_percent_avoiding():
    # forbidden pattern: cell (i2,j1) and (i1,j2) with the complements absent
    bad = from_cells(2, 2, [(2, 1), (1, 2)])
    assert not diagrams.is_percent_avoiding(bad)
    good = from_cells(2, 2, [(1, 1), (2, 1), (1, 2)])
    assert diagrams.is_percent_avoiding(good)
    # Rothe diagrams are always %-avoiding
    for w in permcomb.all_perms(4):
        assert diagrams.is_percent_avoiding(diagrams.rothe(w))


def _has_percent_pattern(D):
    """The literal definition: rows i1 < i2 and columns j1 < j2 holding (i2, j1) and (i1, j2) only."""
    cells = {(i, j) for j, col in enumerate(D.columns, 1) for i in col}
    rows, cols = range(1, D.nrows + 1), range(1, D.ncols + 1)
    return any((i2, j1) in cells and (i1, j2) in cells
               and (i1, j1) not in cells and (i2, j2) not in cells
               for i1 in rows for i2 in rows if i1 < i2 for j1 in cols for j2 in cols if j1 < j2)


@pytest.mark.parametrize("n, m", [(3, 3), (4, 3), (2, 5)])
def test_percent_avoiding_matches_its_definition(n, m):
    column_sets = [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
    for columns in product(column_sets, repeat=m):
        D = Diagram(n, columns)
        assert diagrams.is_percent_avoiding(D) != _has_percent_pattern(D), columns


def test_inclusion_ordered_implies_percent_avoiding():
    for D in all_diagrams(3, 3):
        if diagrams.columns_ordered_by_inclusion(D):
            assert diagrams.is_percent_avoiding(D)


def test_skyline_columns_ordered_by_inclusion():
    # the skyline diagram of (1, 3, 2): column j holds the rows i with alpha_i >= j
    assert diagrams.columns_ordered_by_inclusion(diagrams.parse_diagram("n=3;1,2,3;2,3;2"))
    assert not diagrams.columns_ordered_by_inclusion(
        from_cells(2, 2, [(1, 1), (2, 2)])
    )


def test_smallest_missing_tooth():
    assert diagrams.smallest_missing_tooth(frozenset({1, 2, 6})) == 5
    assert diagrams.smallest_missing_tooth(frozenset({2})) == 1
    assert diagrams.smallest_missing_tooth(frozenset({1, 3, 4})) == 2
    with pytest.raises(ValueError):
        diagrams.smallest_missing_tooth(frozenset({1, 2}))


def test_orthodontic_sequence_31542():
    seq = diagrams.orthodontic_sequence(diagrams.rothe((3, 1, 5, 4, 2)))
    assert seq.K == (frozenset({1}),) + (frozenset(),) * 4
    assert seq.steps == ((2, 1, frozenset()), (3, 1, frozenset({2})), (1, 3, frozenset({4})))


def test_orthodontic_sequence_empty_diagram():
    seq = diagrams.orthodontic_sequence(Diagram(3, (frozenset(),) * 3))
    assert seq.steps == ()
    assert seq.K == (frozenset(),) * 3


def test_orthodontic_sequence_standard_columns_only():
    D = from_cells(3, 2, [(1, 1), (1, 2), (2, 2)])
    seq = diagrams.orthodontic_sequence(D)
    assert seq.steps == ()
    assert seq.K == (frozenset({1}), frozenset({2}), frozenset())


def test_orthodontic_sequence_rejects_non_percent_avoiding():
    bad = from_cells(2, 2, [(2, 1), (1, 2)])
    with pytest.raises(ValueError):
        diagrams.orthodontic_sequence(bad)


def test_orthodontia_step_count_invariant():
    # every orthodontic step closes one gap cell; steps never exceed n*cols
    for D in all_diagrams(3, 2):
        if not diagrams.is_percent_avoiding(D):
            continue
        seq = diagrams.orthodontic_sequence(D)
        assert len(seq.steps) <= 3 * 2
        for i, _, M in seq.steps:
            assert 1 <= i < D.nrows
            assert M <= set(range(1, D.ncols + 1))


def _sequence_cases():
    """Every %-avoiding diagram in [3] x [3] and [4] x [3], then every other one in [3] x [3] forced."""
    for n, m in ((3, 3), (4, 3)):
        for D in all_diagrams(n, m):
            if diagrams.is_percent_avoiding(D):
                yield D, []
    for D in all_diagrams(3, 3):
        if not diagrams.is_percent_avoiding(D):
            yield D, ["--force"]


def test_orthodontic_sequences_match_their_frozen_digest():
    # the theorem-12 memo key forgets j and the column sets, so the scan digests cannot see
    # a wrong j_k or M_k; this pins the whole `orthodontia --json` output of 2400 diagrams
    runner, digest = CliRunner(), hashlib.sha256()
    for D, force in _sequence_cases():
        text = diagrams.format_diagram(D)
        r = runner.invoke(main, ["orthodontia", "--diagram", text, "--json", *force])
        assert r.exit_code == 0, text
        digest.update(text.encode() + b"\n" + r.stdout_bytes)
    assert digest.hexdigest() == "19bc88e696990ecea7b6ce4244c4966b52c162d77951db9146a8f30c65686bcb"


def test_all_diagrams_count():
    assert sum(1 for _ in all_diagrams(2, 2)) == 16


def test_avoiding_masks_are_the_percent_avoiding_diagrams_in_order():
    for n, m in ((n, m) for n in range(10) for m in range(10) if n * m <= 9):
        want = [D for D in all_diagrams(n, m) if diagrams.is_percent_avoiding(D)]
        found = diagrams.avoiding_masks(n, m)
        assert [diagrams.from_masks(n, cols) for cols in found] == want, (n, m)
        assert [diagrams.format_masks(n, cols) for cols in found] == [
            diagrams.format_diagram(D) for D in want], (n, m)


def test_avoiding_masks_counts():
    assert len(diagrams.avoiding_masks(4, 3)) == 1888
    assert len(diagrams.avoiding_masks(4, 4)) == 16927


def test_format_parse_roundtrip():
    for D in [
        diagrams.rothe((3, 1, 5, 4, 2)),
        Diagram(3, ()),
        Diagram(4, (frozenset(), frozenset({2, 4}))),
    ]:
        assert diagrams.parse_diagram(diagrams.format_diagram(D)) == D
    for text, D in [
        ("n=5;1;1,3,4;;3;", diagrams.rothe((3, 1, 5, 4, 2))),
        ("n=2", Diagram(2, ())),
        ("n=2;", Diagram(2, (frozenset(),))),
    ]:
        assert diagrams.format_diagram(D) == text and diagrams.parse_diagram(text) == D
    with pytest.raises(ValueError):
        diagrams.parse_diagram("5;1;")


@st.composite
def diagram_objects(draw):
    nrows = draw(st.integers(0, 6))
    rows = st.frozensets(st.integers(1, nrows), max_size=nrows) if nrows else st.just(frozenset())
    return Diagram(nrows, tuple(draw(st.lists(rows, max_size=5))))


@settings(max_examples=200, deadline=None)
@given(diagram_objects())
def test_format_parse_diagram_roundtrip_fuzzed(D):
    assert diagrams.parse_diagram(diagrams.format_diagram(D)) == D
