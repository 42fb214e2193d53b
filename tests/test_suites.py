"""Smoke tests for the named verification suites at small sizes."""

from collections import Counter

import pytest

from orthodontia import diagrams, families, permcomb, sortorder, suites
from orthodontia.cli import SUITES
from orthodontia.permcomb import format_perm


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_n3(name):
    res = getattr(suites, SUITES[name])(3)
    assert res.checked > 0
    assert res.failures == []
    assert res.first_failing is None


def _unbarred_thm11(nmax):
    """thm11 under unbarred inner omegas, read as the ambiguity report reads it."""
    return suites._result("thm11", suites._sweep(nmax, suites._thm11_checks(nmax, (False,))),
                          suites._THM11)


def test_failing_suite_carries_its_first_failing_item():
    res = _unbarred_thm11(3)
    assert res.first_failing == (1, 3, 2)
    assert res.failures[0] == "script_G != double_grothendieck at w=132"
    res = suites._thm_os2(4, ("alpha",))["alpha"]
    assert res.failures[0] == f"part 6 (alpha) fails at w={format_perm(res.first_failing)}"


def test_unbarred_thm11_reports_every_failure_in_lexicographic_order():
    # in S_3 only 132 fails, so only S_4 shows whether the failures come in
    # lexicographic order, whatever order the suite computes them in
    res = _unbarred_thm11(4)
    assert (res.checked, res.first_failing) == (64, (1, 3, 2))
    assert res.failures == [f"script_G != double_grothendieck at w={w}" for w in (
        "132", "1243", "1324", "1342", "1423", "1432", "2143", "2413", "2431", "3142", "4132")]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_prop_os1_derives_the_sorted_grothendieck_from_g_w(n):
    # the factorization check of prop-os1 reads G_{w_sort} from the G_w its sweep yields.  The
    # reference for each w_sort is taken once, from the first w with that w_sort in sweep order
    # (w_sort may come before or after it): its own G_w if w is sorted, else a query
    queried = {}
    for w, g in families.double_grothendieck_sweep(n):
        pcd = sortorder.primary_column_data(w)
        ws = pcd.sort
        if ws not in queried:
            queried[ws] = g if ws == w else families.double_grothendieck(ws)
        assert suites.sorted_grothendieck(w, pcd, g) == queried[ws], format_perm(w)


def test_perms_sweeps_s2_to_nmax():
    assert [len(list(suites._perms(n))) for n in (-1, 1, 2, 3, 4)] == [0, 0, 2, 8, 32]


def test_ambiguity_report_sweeps_each_s_n_once(monkeypatch):
    # both inner-omega barrings are read off one G sweep of each S_n
    swept = []
    sweep = families.double_grothendieck_sweep

    def counted(n):
        swept.append(n)
        return sweep(n)

    monkeypatch.setattr(families, "double_grothendieck_sweep", counted)
    suites.ambiguity_report(4, 4)
    assert swept == [2, 3, 4]


def test_ambiguity_report_reads_each_sorted_sequence_once(monkeypatch):
    # the endpoint section reads the orthodontic sequence of each sorted nonidentity w once,
    # for parts (1)-(6) under both endpoints, and that of its cover once per endpoint; the
    # other sections reach the sequence through families, not through this name
    read = Counter()
    sequence = diagrams.orthodontic_sequence

    def counted(D):
        read[D] += 1
        return sequence(D)

    monkeypatch.setattr(diagrams, "orthodontic_sequence", counted)
    suites.ambiguity_report(2, 5)
    want = Counter()
    for w in suites._perms(5):
        pcd = sortorder.primary_column_data(w)
        if w != permcomb.identity(len(w)) and pcd.is_sorted:
            want[diagrams.rothe(w)] += 1
            for endpoint in ("alpha-plus-one", "alpha"):
                want[diagrams.rothe(sortorder.os_covers(w, pcd, endpoint))] += 1
    assert read == want


def test_thm_os2_reads_each_primary_column_data_once(monkeypatch):
    # the cover of a sorted w is read off the data the sweep already holds for w, so
    # suite_thm_os2 and the report's endpoint section read each w's data once in all
    read = Counter()
    data = sortorder.primary_column_data

    def counted(w):
        read[w] += 1
        return data(w)

    monkeypatch.setattr(sortorder, "primary_column_data", counted)
    suites.suite_thm_os2(5)
    assert read == Counter(suites._perms(5))
    read.clear()
    suites.ambiguity_report(2, 5)
    assert read == Counter(suites._perms(5))


def test_ambiguity_report_contents():
    report = suites.ambiguity_report(nmax_omega=3, nmax_endpoint=4)
    assert "barred inner omegas reproduce the recursion" in report
    assert "unbarred inner omegas FAIL" in report
    assert "w=132" in report
    assert "endpoint alpha-plus-one satisfies" in report
    assert "endpoint alpha FAILS" in report
    assert "script_S = lowest_degree_part(script_G) holds" in report
