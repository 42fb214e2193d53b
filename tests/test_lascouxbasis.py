"""Tests for Lascoux-basis expansion and the positivity pipelines."""

import json
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthodontia import diagrams, diffops, families, lascouxbasis, permcomb
from orthodontia.lascouxbasis import baseline_degree, lascoux_expand, reconstruct
from orthodontia.polyring import Polynomial

from diagram_sets import conj14_diagrams, from_cells, is_percent_avoiding
from neg1 import script_S_neg1
from scanline import graded_positive, reference_record, scan_record_of


def test_expand_single_lascoux():
    e = lascoux_expand(families.lascoux((0, 2, 1)))
    assert e == {(0, 2, 1): 1}
    assert baseline_degree(e) == 3


def test_expand_zero_and_constant():
    assert lascoux_expand(Polynomial.zero(2)) == {}
    assert baseline_degree({}) == 0
    assert reconstruct(2, {}) == Polynomial.zero(2)
    e = lascoux_expand(Polynomial.const(4, 2))
    assert e == {(0, 0): 4}
    assert baseline_degree(e) == 0


def test_expand_rejects_y_variables():
    with pytest.raises(ValueError):
        lascoux_expand(Polynomial.one(2, 1))


def test_expand_linear_combination_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        target = Polynomial.zero(n)
        want = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            c = rng.randint(-3, 3)
            if c == 0:
                continue
            want[alpha] = want.get(alpha, 0) + c
            target = target + families.lascoux(alpha).scale(c)
        want = {a: c for a, c in want.items() if c}
        e = lascoux_expand(target)
        assert e == want
        assert reconstruct(n, e) == target


def test_expansion_json_shape():
    e = lascoux_expand(families.lascoux((1, 0)) + families.lascoux((0, 1)).scale(-2))
    items = scan_record_of(({}, *lascouxbasis._rendered(e)))["expansion"]
    assert items == [{"alpha": [0, 1], "c": -2}, {"alpha": [1, 0], "c": 1}]


# coefficients: small, large, and the two of magnitude 2^130
COEFFICIENTS = st.integers(-3, 3) | st.integers(-2**130, 2**130) | st.sampled_from([2**130, -2**130])
EXPANSIONS = st.integers(0, 4).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(0, 6)] * n), COEFFICIENTS, max_size=8))
ITEMS = st.none() | st.fixed_dictionaries({"diagram": st.text(max_size=8)}) | st.fixed_dictionaries(
    {"alpha": st.lists(st.integers(0, 9), max_size=4), "i": st.integers(1, 4)})


@settings(max_examples=200, deadline=None)
@given(EXPANSIONS, ITEMS)
@example({}, None)
@example({(): 1}, {"diagram": "n=0"})
@example({(0, 1): -2**130, (1, 0): 2**130, (1, 1): 2**130}, {"w": "21"})
def test_rendered_record_is_json_dumps_of_the_record(coeffs, item):
    verdict, head, tail = lascouxbasis._rendered(coeffs)
    want = reference_record(item, coeffs)
    assert head + json.dumps(item, sort_keys=True) + tail == json.dumps(want, sort_keys=True)
    assert verdict == want["verdict"]


def test_graded_positive_sign_rule():
    # alternating signs relative to baseline are "positive"
    good = {(1, 0): 2, (1, 1): -1, (2, 1): 3}
    assert baseline_degree(good) == 1
    assert graded_positive(good)
    # one coefficient of the wrong sign is a violation, whichever it is
    for alpha in good:
        bad = {**good, alpha: -good[alpha]}
        assert not graded_positive(bad), alpha


def test_theorem12_check_small_diagram():
    D = from_cells(3, 2, [(1, 1), (1, 2), (2, 2)])
    e = lascouxbasis.theorem12_check(D)
    assert graded_positive(e)
    # the flipped specialization reconstructs from the expansion
    assert reconstruct(D.nrows, e) == script_S_neg1(D).flip(D.ncols)


def test_theorem12_check_requires_inclusion_order():
    lascouxbasis._theorem12.clear()
    D = from_cells(2, 2, [(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        lascouxbasis.theorem12_check(D)
    assert lascouxbasis._theorem12 == {}  # the check precedes the memo
    assert graded_positive(lascouxbasis.theorem12_check(D, require_inclusion=False))


def _theorem12_key(D):
    seq = diagrams.orthodontic_sequence(D)
    return (D.nrows, D.ncols, tuple(i for i, _, _ in seq.steps),
            tuple(M.bit_count() for _, _, M in seq.steps), tuple(K.bit_count() for K in seq.K))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lascoux_basis_rules_of_the_theorem12_route(n):
    top = Polynomial.monomial((1,) * n)
    for alpha in product(range(4), repeat=n):
        L = families.lascoux(alpha)
        # pibar_i L_alpha = L_{alpha s_i} if alpha_i > alpha_{i+1}, else L_alpha
        for i in range(1, n):
            beta = list(alpha)
            if beta[i - 1] > beta[i]:
                beta[i - 1], beta[i] = beta[i], beta[i - 1]
            beta = tuple(beta)
            assert diffops.demazure_lascoux(L, i) == families.lascoux(beta), (alpha, i)
            assert lascouxbasis._times_pibar({alpha: 3}, i) == {beta: 3}
        # x_1 ... x_n L_alpha = L_{alpha + 1^n}
        assert top * L == families.lascoux(tuple(a + 1 for a in alpha)), alpha


def test_theorem12_memo_matches_fresh_expansion():
    lascouxbasis._theorem12.clear()
    lascouxbasis._phi.clear()
    items = conj14_diagrams(3, 3) + conj14_diagrams(4, 3)
    for D in items:
        memoized = lascouxbasis.theorem12_check(D, require_inclusion=False)
        fresh = lascoux_expand(script_S_neg1(D).flip(D.ncols))
        assert memoized == fresh, diagrams.format_diagram(D)
        assert baseline_degree(memoized) == baseline_degree(fresh)
    # one expansion per key (118 in [3]x[3], 797 in [4]x[3]), and no polynomial
    assert len(lascouxbasis._theorem12) == len({_theorem12_key(D) for D in items}) == 118 + 797
    memos = [*(e for e, *_ in lascouxbasis._theorem12.values()), *lascouxbasis._phi.values()]
    assert all(type(e) is dict for e in memos)
    # beside each expansion, the text of its key's records, rendered once from it
    assert all(tuple(text) == lascouxbasis._rendered(e)
               for e, *text in lascouxbasis._theorem12.values())


def test_theorem12_key_is_exact():
    groups = {}
    for D in conj14_diagrams(3, 3) + conj14_diagrams(4, 3):
        groups.setdefault(_theorem12_key(D), []).append(D)
    shared = [g for g in groups.values() if len(g) > 1]
    # the key forgets j and the column sets, and some diagrams differ only there
    assert any(len({tuple(j for _, j, _ in diagrams.orthodontic_sequence(D).steps) for D in g}) > 1
               for g in shared)
    for g in shared:
        first = script_S_neg1(g[0])
        assert all(script_S_neg1(D) == first for D in g[1:])


def test_theorem12_key_is_read_from_the_mask_core():
    # the key comes from the column masks, never from an OrthodonticSequence; it must be
    # the one the sequence gives
    lascouxbasis._theorem12.clear()
    lascouxbasis._phi.clear()
    rothe = [diagrams.rothe(w) for n in range(1, 7) for w in permcomb.all_perms(n)]
    for D in conj14_diagrams(3, 3) + conj14_diagrams(4, 3) + rothe:
        key = lascouxbasis._theorem12_key(D.nrows, list(D.columns))
        assert key == _theorem12_key(D), diagrams.format_diagram(D)


def test_theorem12_check_refuses_a_non_percent_avoiding_diagram_before_the_memo():
    from click.testing import CliRunner

    from orthodontia.cli import main

    lascouxbasis._theorem12.clear()
    r = CliRunner().invoke(main, ["check", "thm12", "--no-require-inclusion", "--diagram", "n=2;2;1"])
    assert r.exit_code == 2, r.output
    assert "diagram is not %-avoiding (`orthodontia orthodontia --force`" in r.stderr
    assert lascouxbasis._theorem12 == {}


def test_theorem12_check_returns_its_own_coefficients():
    lascouxbasis._theorem12.clear()
    D = from_cells(3, 2, [(1, 1), (1, 2), (2, 2)])
    first = lascouxbasis.theorem12_check(D)
    want = dict(first)
    first.clear()  # a caller's edit reaches neither the memo nor a later call
    assert lascouxbasis.theorem12_check(D) == want != {}


def test_each_cli_command_starts_from_an_empty_memo():
    from click.testing import CliRunner

    from orthodontia.cli import main

    lascouxbasis._theorem12.clear()
    lascouxbasis._phi.clear()
    for D in conj14_diagrams(3, 3):
        lascouxbasis.theorem12_check(D, require_inclusion=False)
    assert len(lascouxbasis._theorem12) == 118
    assert len(lascouxbasis._phi) == 77
    r = CliRunner().invoke(main, ["check", "thm12", "--diagram", "n=3;2,3;3;3"])
    assert r.exit_code == 0, r.output
    assert len(lascouxbasis._theorem12) == 1
    # the phi products of this diagram's word alone (i = 1,2,1, |M| = 0,1,2, every K empty):
    # phi_2 twice from L_000, then phi_1 once on what pibar_2 left
    assert sorted(lascouxbasis._phi) == [((0, 0, 0), 2), ((1, 1, 0), 2), ((1, 1, 1), 2),
                                         ((2, 0, 2), 1), ((2, 1, 2), 1), ((2, 2, 2), 1)]


def test_conj15_item_record():
    rec = scan_record_of(lascouxbasis.conj15_item(((1, 0), 1)))
    assert rec["item"] == {"alpha": [1, 0], "i": 1}
    assert rec["verdict"] == "positive"
    assert rec["d0"] >= 1
    want = lascoux_expand(diffops.phi(families.lascoux((1, 0)), 1))
    assert rec == reference_record({"alpha": [1, 0], "i": 1}, want)


def test_conj15_items_enumeration():
    items = lascouxbasis.conj15_items(2, 1)
    assert len(items) == 4 * 2


def test_conj14_items_are_percent_avoiding():
    items = conj14_diagrams(2, 2)
    assert all(is_percent_avoiding(D) for D in items)
    assert len(items) == 15  # 16 diagrams minus the one %-pattern
    # an item is (n, the column masks), which a pool pickles as a few small ints
    assert lascouxbasis.conj14_items(2, 2)[:3] == [(2, (0, 0)), (2, (2, 0)), (2, (4, 0))]


def test_thm12_vexillary_items():
    items = lascouxbasis.thm12_vexillary_items(3)
    assert len(items) == 6  # every w in S_3 is vexillary
    assert (2, 1, 4, 3) not in lascouxbasis.thm12_vexillary_items(4)


def test_expansion_respects_all_compositions_cap():
    # expanding a dense low-degree polynomial terminates
    f = Polynomial.zero(2)
    for a, b in product(range(3), repeat=2):
        f = f + Polynomial.monomial((a, b))
    assert reconstruct(2, lascoux_expand(f)) == f
