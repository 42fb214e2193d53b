"""Acceptance criteria: one pass/fail line per criterion.

Each test checks one numbered criterion exactly (tolerance zero) and
prints "criterion <k>: PASS|FAIL" through the capture plugin so the line
is visible in the terminal output.
"""

import random
from itertools import combinations, product

from orthodontia import (
    diagrams,
    families,
    lascouxbasis,
    permcomb,
    pipedreams,
    sortorder,
    suites,
)
from orthodontia.diagrams import Diagram, rothe
from orthodontia.polyring import Polynomial

from diagram_sets import all_diagrams
from neg1 import script_S_neg1
from scanline import graded_positive, scan_record_of


def _report(capsys, k, ok):
    with capsys.disabled():
        print(f"criterion {k}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k} failed"


def test_criterion_01_triple_agreement(capsys):
    ok = True
    for n in range(2, 6):
        for w, dg in families.double_grothendieck_sweep(n):
            if pipedreams.weight_sum(w) != dg or families.script_G(rothe(w)) != dg:
                ok = False
    _report(capsys, 1, ok)


def test_criterion_02_pd_count_1423(capsys):
    _report(capsys, 2, len(pipedreams.enumerate_pd((1, 4, 2, 3))) == 5)


def test_criterion_03_script_S_double_schubert(capsys):
    ok = all(
        families.script_S(rothe(w)) == ds.negate_y()
        for w, ds in families.double_schubert_sweep(5)
    )
    _report(capsys, 3, ok)


def test_criterion_04_final_example_expansions(capsys):
    expected = {
        (3, 2, 1): {
            (3, 2, 1): 1,
            (3, 2, 2): -2,
            (3, 3, 1): -1,
            (3, 2, 3): 1,
            (3, 3, 2): 1,
        },
        (3, 2, 1, 4): {
            (4, 4, 3, 2): 1,
            (4, 4, 3, 3): -2,
            (4, 4, 4, 2): -1,
            (4, 4, 3, 4): 1,
            (4, 4, 4, 3): 1,
        },
    }
    ok = True
    for w, want in expected.items():
        if lascouxbasis.theorem12_check(rothe(w), require_inclusion=False) != want:
            ok = False
    _report(capsys, 4, ok)


def test_criterion_05_positivity_pipelines(capsys):
    ok = True
    # every inclusion-ordered diagram in [3] x [3]
    for D in all_diagrams(3, 3):
        if not diagrams.columns_ordered_by_inclusion(D):
            continue
        if not graded_positive(lascouxbasis.theorem12_check(D)):
            ok = False
    # inclusion-ordered Rothe diagrams of vexillary w in S_4
    for w in permcomb.all_perms(4):
        if not permcomb.is_vexillary(w):
            continue
        D = rothe(w)
        if not diagrams.columns_ordered_by_inclusion(D):
            continue
        if not graded_positive(lascouxbasis.theorem12_check(D)):
            ok = False
    # every vexillary w in S_5 is positive
    for w in lascouxbasis.thm12_vexillary_items(5):
        if scan_record_of(lascouxbasis.thm12_vexillary_item(w))["verdict"] != "positive":
            ok = False
    _report(capsys, 5, ok)


def test_criterion_06_conjecture_scans(capsys):
    records = []
    sources = []  # (kind, item) so verdicts can be re-derived independently
    for args in lascouxbasis.conj15_items(3, 3) + lascouxbasis.conj15_items(4, 2):
        records.append(scan_record_of(lascouxbasis.conj15_item(args)))
        sources.append(("conj15", args))
    for item in lascouxbasis.conj14_items(3, 3):
        records.append(scan_record_of(lascouxbasis.conj14_item(item)))
        sources.append(("conj14", Diagram(*item)))
    for w in permcomb.all_perms(4):
        records.append(scan_record_of(lascouxbasis.thm12_vexillary_item(w)))
        sources.append(("rothe", w))
    ok = all(rec["verdict"] == "positive" for rec in records)

    # re-expand 10 random samples independently of the recorded expansions
    rng = random.Random(2024)
    for idx in rng.sample(range(len(records)), 10):
        kind, item = sources[idx]
        if kind == "conj15":
            alpha, i = item
            from orthodontia.diffops import phi

            target = phi(families.lascoux(alpha), i)
        elif kind == "conj14":
            target = script_S_neg1(item).flip(item.ncols)
        else:
            D = rothe(item)
            target = script_S_neg1(D).flip(D.ncols)
        e = lascouxbasis.lascoux_expand(target)
        want = {tuple(t["alpha"]): t["c"] for t in records[idx]["expansion"]}
        if e != want:
            ok = False
    _report(capsys, 6, ok)


def test_criterion_07_operator_identity_suites(capsys):
    ops = suites.suite_operators(4)
    lem = suites.suite_lemma4(4)
    _report(capsys, 7, ops.passed and lem.passed)


def test_criterion_08_structural_suites(capsys):
    ok = suites.suite_prop_os1(5).passed
    ok = ok and suites.suite_thm_os2(5).passed
    # forced crosses: every pipe dream of w contains C_w
    for w in permcomb.all_perms(4):
        pcd = sortorder.primary_column_data(w)
        lam = [col.bit_count() for col in rothe(w).columns]
        Cw = {
            (i, j)
            for j in range(1, pcd.h + 1)
            for i in range(1, lam[j - 1] + 1)
        }
        for crosses in pipedreams.enumerate_pd(w):
            if not Cw <= set(crosses):
                ok = False
    _report(capsys, 8, ok)


def test_criterion_09_triangularity(capsys):
    res = suites.suite_triangularity(4)
    _report(capsys, 9, res.passed)


def test_criterion_10_stable_grothendieck(capsys):
    n = 3
    g = families.stable_grothendieck((2, 1), n)
    expected = Polynomial.zero(n)
    for r in range(1, n + 1):
        er = Polynomial.zero(n)
        for sub in combinations(range(1, n + 1), r):
            term = Polynomial.one(n)
            for i in sub:
                term = term * Polynomial.var_x(i, n)
            er = er + term
        expected = expected + (er if r % 2 else er.scale(-1))
    ok = g == expected
    # L_alpha * G_21 expands graded-nonnegatively (smoke test)
    for nn in range(1, 4):
        gn = families.stable_grothendieck((2, 1), nn)
        for alpha in product(range(3), repeat=nn):
            e = lascouxbasis.lascoux_expand(families.lascoux(alpha) * gn)
            if not graded_positive(e):
                ok = False
    _report(capsys, 10, ok)


def test_criterion_11_ambiguity_report(capsys):
    report = suites.ambiguity_report(nmax_omega=4, nmax_endpoint=5)
    ok = (
        "barred inner omegas reproduce the recursion" in report
        and "unbarred inner omegas FAIL; first counterexample w=132" in report
        and "endpoint alpha-plus-one satisfies" in report
        and "endpoint alpha FAILS; first counterexample w=" in report
    )
    _report(capsys, 11, ok)
