"""Tests for diagrams and the double orthodontia algorithm."""

import hashlib
import re
from itertools import product

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from orthodontia import diagrams, permcomb
from orthodontia.cli import main
from orthodontia.diagrams import Diagram

from diagram_sets import all_diagrams, from_cells, is_percent_avoiding


def size(D):
    return sum(col.bit_count() for col in D.columns)


def row_counts(D):
    """Number of boxes in each row (the exponent vector of x^D)."""
    counts = [0] * D.nrows
    for col in D.columns:
        for i in diagrams.bits(col):
            counts[i - 1] += 1
    return tuple(counts)


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram(2, (0b1000,))
    D = Diagram(3, (0b1010, 0))
    assert D.ncols == 2
    assert list(D.cells()) == [(1, 1), (3, 1)]
    assert size(D) == 2
    assert row_counts(D) == (1, 0, 1)


@pytest.mark.parametrize("nrows, columns, message", [
    (2, (0b10, -2), "column mask -2 is negative"),
    (2, (0b11,), "row index 0 outside [1,2]"),
    (2, (0b1,), "row index 0 outside [1,2]"),
    (2, (0b10, 0b1010), "row index 3 outside [1,2]"),
    (0, (0b10,), "row index 1 outside [1,0]"),
    (-1, (), "nrows must be >= 0, got -1"),
])
def test_diagram_refuses_a_mask_outside_its_rows(nrows, columns, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Diagram(nrows, columns)


def test_bits():
    assert diagrams.bits(0) == []
    assert diagrams.bits(0b101100) == [2, 3, 5]
    assert all(sum(1 << i for i in diagrams.bits(mask)) == mask for mask in range(1 << 9))


def test_from_cells():
    D = from_cells(3, 2, [(1, 1), (3, 2)])
    assert D.columns == (0b10, 0b1000)


def test_rothe_31542():
    D = diagrams.rothe((3, 1, 5, 4, 2))
    assert [diagrams.bits(c) for c in D.columns] == [[1], [1, 3, 4], [], [3], []]


def test_rothe_size_is_length():
    for w in permcomb.all_perms(5):
        assert size(diagrams.rothe(w)) == permcomb.length(w)


def test_rothe_dominant_gives_partition_columns():
    D = diagrams.rothe((3, 2, 1))
    assert [diagrams.bits(c) for c in D.columns] == [[1, 2], [1], []]


def test_percent_avoiding():
    # forbidden pattern: cell (i2,j1) and (i1,j2) with the complements absent
    bad = from_cells(2, 2, [(2, 1), (1, 2)])
    assert not is_percent_avoiding(bad)
    good = from_cells(2, 2, [(1, 1), (2, 1), (1, 2)])
    assert is_percent_avoiding(good)
    # Rothe diagrams are always %-avoiding
    for w in permcomb.all_perms(4):
        assert is_percent_avoiding(diagrams.rothe(w))


def _has_percent_pattern(D):
    """The literal definition: rows i1 < i2 and columns j1 < j2 holding (i2, j1) and (i1, j2) only."""
    cells = set(D.cells())
    rows, cols = range(1, D.nrows + 1), range(1, D.ncols + 1)
    return any((i2, j1) in cells and (i1, j2) in cells
               and (i1, j1) not in cells and (i2, j2) not in cells
               for i1 in rows for i2 in rows if i1 < i2 for j1 in cols for j2 in cols if j1 < j2)


@pytest.mark.parametrize("n, m", [(3, 3), (4, 3), (2, 5)])
def test_percent_avoiding_matches_its_definition(n, m):
    # every column of [n]: the even masks below 2^(n+1)
    for columns in product(range(0, 2 << n, 2), repeat=m):
        D = Diagram(n, columns)
        assert is_percent_avoiding(D) != _has_percent_pattern(D), columns


def test_inclusion_ordered_implies_percent_avoiding():
    for D in all_diagrams(3, 3):
        if diagrams.columns_ordered_by_inclusion(D):
            assert is_percent_avoiding(D)


def test_skyline_columns_ordered_by_inclusion():
    # the skyline diagram of (1, 3, 2): column j holds the rows i with alpha_i >= j
    assert diagrams.columns_ordered_by_inclusion(diagrams.parse_diagram("n=3;1,2,3;2,3;2"))
    assert not diagrams.columns_ordered_by_inclusion(
        from_cells(2, 2, [(1, 1), (2, 2)])
    )


def test_smallest_missing_tooth():
    assert diagrams.smallest_missing_tooth(0b1000110) == 5
    assert diagrams.smallest_missing_tooth(0b100) == 1
    assert diagrams.smallest_missing_tooth(0b11010) == 2
    with pytest.raises(ValueError, match=re.escape("column [1, 2] has no missing tooth")):
        diagrams.smallest_missing_tooth(0b110)


def test_smallest_missing_tooth_and_standard_interval_match_their_set_definitions():
    for mask in range(1 << 9):
        col = set(diagrams.bits(mask))
        # the smallest i >= 1 with i not in col and i + 1 in col
        want = next((i for i in range(1, 9) if i not in col and i + 1 in col), None)
        if want is None:
            with pytest.raises(ValueError):
                diagrams.smallest_missing_tooth(mask)
        else:
            assert diagrams.smallest_missing_tooth(mask) == want, bin(mask)
        standard = col == set(range(1, len(col) + 1))
        assert diagrams.is_standard(mask) == standard, bin(mask)
        # a column (no row 0) has no missing tooth exactly when it is a standard interval {1..k}
        if not mask & 1:
            assert standard == (want is None), bin(mask)


def test_orthodontic_sequence_31542():
    seq = diagrams.orthodontic_sequence(diagrams.rothe((3, 1, 5, 4, 2)))
    assert seq.K == (0b10,) + (0,) * 4
    assert seq.steps == ((2, 1, 0), (3, 1, 0b100), (1, 3, 0b10000))


def test_orthodontic_sequence_empty_diagram():
    seq = diagrams.orthodontic_sequence(Diagram(3, (0,) * 3))
    assert seq.steps == ()
    assert seq.K == (0,) * 3


def test_orthodontic_sequence_standard_columns_only():
    D = from_cells(3, 2, [(1, 1), (1, 2), (2, 2)])
    seq = diagrams.orthodontic_sequence(D)
    assert seq.steps == ()
    assert seq.K == (0b10, 0b100, 0)


def test_orthodontic_sequence_rejects_non_percent_avoiding():
    bad = from_cells(2, 2, [(2, 1), (1, 2)])
    with pytest.raises(ValueError):
        diagrams.orthodontic_sequence(bad)


def test_orthodontia_step_count_invariant():
    # every orthodontic step closes one gap cell; steps never exceed n*cols
    for D in all_diagrams(3, 2):
        if not is_percent_avoiding(D):
            continue
        seq = diagrams.orthodontic_sequence(D)
        assert len(seq.steps) <= 3 * 2
        for i, _, M in seq.steps:
            assert 1 <= i < D.nrows
            assert M & ~((2 << D.ncols) - 2) == 0


def _sequence_cases():
    """Every %-avoiding diagram in [3] x [3] and [4] x [3], then every other one in [3] x [3] forced."""
    for n, m in ((3, 3), (4, 3)):
        for D in all_diagrams(n, m):
            if is_percent_avoiding(D):
                yield D, []
    for D in all_diagrams(3, 3):
        if not is_percent_avoiding(D):
            yield D, ["--force"]


def test_orthodontic_sequences_match_their_frozen_digest():
    # the theorem-12 memo key forgets j and the column sets, so the scan digests cannot see
    # a wrong j_k or M_k; this pins the whole `orthodontia` output of 2400 diagrams, with
    # --json and as text
    runner, digests = CliRunner(), {("--json",): hashlib.sha256(), (): hashlib.sha256()}
    for D, force in _sequence_cases():
        text = diagrams.format_diagram(D)
        for mode, digest in digests.items():
            r = runner.invoke(main, ["orthodontia", "--diagram", text, *mode, *force])
            assert r.exit_code == 0, text
            digest.update(text.encode() + b"\n" + r.stdout_bytes)
    assert {mode: d.hexdigest() for mode, d in digests.items()} == {
        ("--json",): "19bc88e696990ecea7b6ce4244c4966b52c162d77951db9146a8f30c65686bcb",
        (): "596d9fd4fd567595105785267528825acc884fb7b19605b5fd1c6886540c0aa0",
    }


def test_all_diagrams_count():
    assert sum(1 for _ in all_diagrams(2, 2)) == 16


def test_avoiding_masks_are_the_percent_avoiding_diagrams_in_order():
    for n, m in ((n, m) for n in range(10) for m in range(10) if n * m <= 9):
        want = [D for D in all_diagrams(n, m) if is_percent_avoiding(D)]
        found = diagrams.avoiding_masks(n, m)
        assert [Diagram(n, cols) for cols in found] == want, (n, m)
        assert [diagrams.format_masks(n, cols) for cols in found] == [
            diagrams.format_diagram(D) for D in want], (n, m)


def test_avoiding_masks_counts():
    assert len(diagrams.avoiding_masks(4, 3)) == 1888
    assert len(diagrams.avoiding_masks(4, 4)) == 16927


def test_format_parse_roundtrip():
    for D in [
        diagrams.rothe((3, 1, 5, 4, 2)),
        Diagram(3, ()),
        Diagram(4, (0, 0b10100)),
    ]:
        assert diagrams.parse_diagram(diagrams.format_diagram(D)) == D
    for text, D in [
        ("n=5;1;1,3,4;;3;", diagrams.rothe((3, 1, 5, 4, 2))),
        ("n=2", Diagram(2, ())),
        ("n=2;", Diagram(2, (0,))),
    ]:
        assert diagrams.format_diagram(D) == text and diagrams.parse_diagram(text) == D
    # a repeated row index names the same cell once
    assert diagrams.parse_diagram("n=2;1,1") == diagrams.parse_diagram("n=2;1") == Diagram(2, (0b10,))
    with pytest.raises(ValueError):
        diagrams.parse_diagram("5;1;")


@st.composite
def diagram_objects(draw):
    nrows = draw(st.integers(0, 6))
    # a column is a set of rows in [1, nrows], so its mask is an even number below 2^(nrows+1)
    rows = st.integers(0, (1 << nrows) - 1).map(lambda r: r << 1)
    return Diagram(nrows, tuple(draw(st.lists(rows, max_size=5))))


@settings(max_examples=200, deadline=None)
@given(diagram_objects())
def test_format_parse_diagram_roundtrip_fuzzed(D):
    assert diagrams.parse_diagram(diagrams.format_diagram(D)) == D
