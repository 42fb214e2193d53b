"""Named verification suites over the structural results.

Each ``suite_*`` function takes ``nmax`` alone: it sweeps an
index range (S_2..S_nmax for the permutation suites), checks exact
identities, and returns a count, the failure descriptions and the item of
the first failure.  The CLI `verify` subcommand, the acceptance tests and
the ambiguity report (from thm11, both barrings in one sweep, and thm-os2)
all run these.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product

from . import diagrams, diffops, families, lascouxbasis, permcomb, pipedreams, sortorder
from .diagrams import Diagram, rothe
from .permcomb import Permutation, all_perms, format_perm
from .polyring import Polynomial
from .sortorder import PrimaryColumnData


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    first_failing: object = None  # the item of the first failed check

    def check(self, ok: bool, msg: str, item: object = None):
        self.checked += 1
        if not ok:
            if not self.failures:
                self.first_failing = item
            self.failures.append(msg)

    @property
    def passed(self) -> bool:
        return not self.failures


def _perms(nmax: int):
    """S_2, ..., S_nmax, each in lexicographic order."""
    for n in range(2, nmax + 1):
        yield from all_perms(n)


def _sweep(nmax: int, checks, *sweeps) -> dict:
    """w -> checks(w, f_1(w), ...) for every w in S_2..S_nmax, in the order of `_perms`.

    Each sweep (the G sweep by default) yields (w, f(w)) over S_n, all in one order.
    """
    sweeps = sweeps or (families.double_grothendieck_sweep,)
    outcome = {}
    for n in range(2, nmax + 1):
        for (w, f), *rest in zip(*(sweep(n) for sweep in sweeps)):
            outcome[w] = checks(w, f, *(g for _, g in rest))
    return {w: outcome[w] for w in _perms(nmax)}


def _result(name: str, outcome: dict, messages: tuple[str, ...]) -> SuiteResult:
    """The checks of `outcome` (w -> one boolean per message); a message names w by {w}."""
    res = SuiteResult(name)
    for w, oks in outcome.items():
        for ok, msg in zip(oks, messages):
            res.check(ok, msg.format(w=format_perm(w)), w)
    return res


_THM11 = ("weight_sum != double_grothendieck at w={w}",
          "script_G != double_grothendieck at w={w}")


def _thm11_checks(nmax: int, barrings: tuple[bool, ...]):
    """(w, G_w) -> (weight_sum(w) == G_w, script_G(rothe(w)) == G_w per inner-omega barring)."""
    if nmax > pipedreams.MAX_N:
        raise ValueError(f"thm11 needs nmax <= {pipedreams.MAX_N} (pipe-dream walk), got {nmax}")
    return lambda w, dg: (pipedreams.weight_sum(w) == dg,
                          *(families.script_G(rothe(w), barred) == dg for barred in barrings))


def suite_thm11(nmax: int) -> SuiteResult:
    """Triple agreement: recursion = pipe-dream sum = orthodontia evaluator (barred inner omegas)."""
    return _result("thm11", _sweep(nmax, _thm11_checks(nmax, (True,))), _THM11)


def suite_cor_double_schub(nmax: int) -> SuiteResult:
    """script_S(rothe(w)) = S_w(x, -y); both Schubert routes agree."""
    # the lowest-degree route: S_w(x, y) is the lowest degree part of G_w(x, -y) (y -> -y keeps degree)
    outcome = _sweep(nmax, lambda w, dg, ds: (ds == dg.lowest_degree_part().negate_y(),
                                              families.script_S(rothe(w)) == ds.negate_y()),
                     families.double_grothendieck_sweep, families.double_schubert_sweep)
    return _result("cor-double-schub", outcome, (
        "schubert recursion != lowest-degree route at w={w}",
        "script_S != negate_y(double_schubert) at w={w}",
    ))


def sorted_grothendieck(w: Permutation, pcd: PrimaryColumnData, g: Polynomial) -> Polynomial:
    """G_{w_sort} from g = G_w and w's data pcd: bubble-sort the rows alpha+1..i1 of w.

    Each swap at a descent j of u is the recursion's own step
    G_{u s_j} = dbar_j G_u, so a sorted w gives back g.
    """
    u = list(w)
    for top in range(pcd.i1 - 1, pcd.alpha, -1):
        for j in range(pcd.alpha + 1, top + 1):
            if u[j - 1] > u[j]:
                u[j - 1], u[j] = u[j], u[j - 1]
                g = diffops.isobaric(g, j)
    return g


def suite_prop_os1(nmax: int) -> SuiteResult:
    """Difference-set formula, sequence-data equalities, and factorization."""

    def checks(w: Permutation, g: Polynomial) -> tuple[bool, ...]:
        n = len(w)
        pcd = sortorder.primary_column_data(w)
        # window column -> the size of the matching column of D(sigma(w))
        sizes = dict(zip(diagrams.bits(pcd.window), map(int.bit_count, rothe(pcd.sigma).columns)))
        D, Ds = rothe(w), rothe(pcd.sort)
        Dw, Dws = set(D.cells()), set(Ds.cells())
        expected_diff = {(pcd.alpha + a, c) for c, k in sizes.items() for a in range(1, k + 1)}
        K_w, steps_w = diagrams.orthodontic_sequence(n, D.columns)
        K_s, steps_s = diagrams.orthodontic_sequence(n, Ds.columns)
        # K_j of w is K_j of w_sort plus the window columns whose sigma(w) column has
        # j - alpha cells (none past i1: D(sigma) has beta - 1 rows), less the window at alpha
        k_ok = all(K == (Kp & ~pcd.window if j == pcd.alpha else Kp)
                   | sum(1 << c for c, size in sizes.items() if size == j - pcd.alpha)
                   for j, (K, Kp) in enumerate(zip(K_w, K_s), 1))
        # G_w = prod * G_{w_sort}: Z[x, y] is an integral domain, so this
        # holds exactly when prod divides G_w with quotient G_{w_sort}.  With
        # no crossed cell prod is 1, and the product is G_{w_sort} itself.
        factored = sorted_grothendieck(w, pcd, g)
        if Dw - Dws:
            crossed = (diffops._xy_factor(a, b, n, n, barred=True) for a, b in sorted(Dw - Dws))
            factored = math.prod(crossed, start=Polynomial.one(n, n)) * factored
        return (Dws <= Dw and Dw - Dws == expected_diff,
                steps_w == steps_s,
                k_ok,
                g == factored)

    return _result("prop-os1", _sweep(nmax, checks), (
        "difference-set mismatch at w={w}",
        "(i,j,M) sequence mismatch at w={w}",
        "K-transformation mismatch at w={w}",
        "factorization fails at w={w}",
    ))


def sorted_structure_parts(w: Permutation, pcd: PrimaryColumnData,
                           K: tuple, steps: tuple) -> list[str]:
    """Structural claims about the orthodontic sequence (K, steps) of a sorted w with data pcd."""
    bad = []
    if len(steps) < pcd.beta:
        return [f"fewer than beta={pcd.beta} orthodontic steps at w={format_perm(w)}"]
    for k, ((i, j, _), column) in enumerate(zip(steps, diagrams.bits(pcd.window)), 1):
        if i != pcd.i1 - k + 1:
            bad.append(f"part 1 fails at w={format_perm(w)}, k={k}")
        if j != column:
            bad.append(f"part 2 fails at w={format_perm(w)}, k={k}")
    if pcd.alpha > 0 and pcd.window & ~K[pcd.alpha - 1]:
        bad.append(f"part 3 fails at w={format_perm(w)}")
    for k in range(pcd.alpha + 1, pcd.i1 + 1):
        if K[k - 1]:
            bad.append(f"part 4 fails at w={format_perm(w)}, k={k}")
    for k, (_, _, M) in enumerate(steps[:pcd.beta - 1], 1):
        if M:
            bad.append(f"part 5 fails at w={format_perm(w)}, k={k}")
    return bad


def sorted_cover_check(w: Permutation, pcd: PrimaryColumnData, K: tuple, steps: tuple,
                       endpoint: str) -> bool:
    """Does w' = w s_{i1} ... s_(endpoint) carry the sequence predicted from (K, steps)?"""
    K2, steps2 = diagrams.orthodontic_sequence(
        len(w), rothe(sortorder.os_covers(w, pcd, endpoint=endpoint)).columns)
    b, S = pcd.beta, pcd.window
    if steps2 != steps[b:]:
        return False
    expect = list(K)  # S moves from K_alpha to K_{alpha+1}, joined by M_beta
    if pcd.alpha > 0:
        expect[pcd.alpha - 1] &= ~S
    expect[pcd.alpha] = S | steps[b - 1][2]
    return list(K2) == expect


def _thm_os2(nmax: int, endpoints: tuple[str, ...]) -> dict[str, SuiteResult]:
    """suite_thm_os2(nmax, e) per endpoint e; parts (1)-(5) are read once per sorted w."""
    results = {e: SuiteResult("thm-os2") for e in endpoints}
    for w in _perms(nmax):
        pcd = sortorder.primary_column_data(w)
        if w == permcomb.identity(len(w)) or not pcd.is_sorted:
            continue
        K, steps = diagrams.orthodontic_sequence(len(w), rothe(w).columns)
        bad = sorted_structure_parts(w, pcd, K, steps)
        for e, res in results.items():
            res.check(not bad, "; ".join(bad), w)
            res.check(sorted_cover_check(w, pcd, K, steps, e),
                      f"part 6 ({e}) fails at w={format_perm(w)}", w)
    return results


def suite_thm_os2(nmax: int) -> SuiteResult:
    """Sorted-case structure, parts (1)-(6), for sorted nonidentity w (endpoint alpha+1)."""
    return _thm_os2(nmax, ("alpha-plus-one",))["alpha-plus-one"]


def random_polynomial(rng: random.Random, n: int, m: int, maxdeg: int = 4, nterms: int = 5) -> Polynomial:
    """Up to nterms random terms of total degree at most maxdeg, coefficients in [-5, 5]."""
    terms = {}
    for _ in range(nterms):
        budget = rng.randint(0, maxdeg)
        xe = [0] * n
        ye = [0] * m
        for _ in range(budget):
            k = rng.randrange(n + m)
            if k < n:
                xe[k] += 1
            else:
                ye[k - n] += 1
        terms[(tuple(xe), tuple(ye))] = rng.randint(-5, 5)
    return Polynomial(n, m, {mon: c for mon, c in terms.items() if c})


def suite_operators(nmax: int) -> SuiteResult:
    """Braid/commutation relations, nilpotence and idempotence: 500 trials, n in [3, nmax]."""
    if nmax < 3:
        raise ValueError(f"operators needs nmax >= 3 (braid relations need n >= 3), got {nmax}")
    res = SuiteResult("operators")
    rng = random.Random(2024)
    ops = {
        "d": diffops.divided_difference,
        "dbar": diffops.isobaric,
        "pi": diffops.demazure,
        "pibar": diffops.demazure_lascoux,
    }
    for t in range(500):
        n = rng.randint(3, nmax)
        m = rng.choice([0, 2])
        f = random_polynomial(rng, n, m)
        name, op = rng.choice(list(ops.items()))
        i = rng.randint(1, n - 2)
        res.check(
            op(op(op(f, i), i + 1), i) == op(op(op(f, i + 1), i), i + 1),
            f"braid fails for {name} at trial {t}",
        )
        if n >= 4:
            res.check(
                op(op(f, 1), 3) == op(op(f, 3), 1),
                f"commutation fails for {name} at trial {t}",
            )
        j = rng.randint(1, n - 1)
        res.check(
            not diffops.divided_difference(diffops.divided_difference(f, j), j),
            f"d_i d_i != 0 at trial {t}",
        )
        for name in ("pi", "pibar"):
            g = ops[name](f, j)
            res.check(ops[name](g, j) == g, f"{name}_i not idempotent at trial {t}")
    return res


def _elementary_symmetric(r: int, lo: int, hi: int, n: int, m: int) -> Polynomial:
    """e_r in the variables x_lo..x_hi, in ambient (n, m)."""
    return Polynomial(n, m, {(tuple(int(j in sub) for j in range(1, n + 1)), (0,) * m): 1
                             for sub in combinations(range(lo, hi + 1), r)})


def suite_lemma4(nmax: int) -> SuiteResult:
    """Specialization/intertwining identities (200 trials, n in [2, nmax]) and pi-to-del (40)."""
    if nmax < 2:
        raise ValueError(f"lemma4 needs nmax >= 2, got {nmax}")
    res = SuiteResult("lemma4")
    rng = random.Random(77)

    for t in range(200):
        n = rng.randint(2, nmax)
        m = rng.randint(1, 3)
        i = rng.randint(1, n)
        M = rng.sample(range(1, m + 1), rng.randint(0, m))
        xm1 = [Polynomial.var_x(j, n, 0) - Polynomial.one(n, 0) for j in range(1, n + 1)]
        below = math.prod(xm1[:i], start=Polynomial.one(n, 0))  # prod_{j <= i} (x_j - 1)
        # omega-spec
        lhs = diffops.omega(i, M, False, n, m).substitute_y(-1)
        rhs = math.prod([below] * len(M), start=Polynomial.one(n, 0))
        res.check(lhs == rhs, f"omega-spec fails at trial {t}")

        # omega-int and pi-int act on y-free polynomials under a degree cap
        mcap = rng.randint(1, 3)
        f = random_polynomial(rng, n, 0, maxdeg=mcap, nterms=4)
        res.check(
            (f * below).flip(mcap + 1) == diffops.phi(f.flip(mcap), n - i),
            f"omega-int fails at trial {t}",
        )
        if i <= n - 1:
            di = diffops.divided_difference(xm1[i - 1] * f, i)
            res.check(
                di.flip(mcap) == diffops.demazure_lascoux(f.flip(mcap), n - i),
                f"pi-int fails at trial {t}",
            )

        # pi-spec on polynomials with y variables present
        g = random_polynomial(rng, n, m)
        ii = rng.randint(1, n - 1)
        jj = rng.randint(1, m)
        lhs = diffops.pi_double(g, ii, jj).substitute_y(-1)
        rhs = diffops.divided_difference(xm1[ii - 1] * g.substitute_y(-1), ii)
        res.check(lhs == rhs, f"pi-spec fails at trial {t}")

    # pi-to-del: g symmetric in x_{i+1}..x_{i+k+1} so the d-vanishing holds
    for t in range(40):
        k = rng.randint(0, 3)
        i = rng.randint(1, 2)
        n = i + k + 1
        m = rng.randint(1, 2)
        g = _elementary_symmetric(rng.randint(1, k + 1), i + 1, i + k + 1, n, m)
        h = random_polynomial(rng, n, m, maxdeg=2, nterms=3)
        h = Polynomial(n, m, {
            (xe, ye): c for (xe, ye), c in h.to_dict().items()
            if all(xe[j] == 0 for j in range(i, i + k + 1))
        })
        if not h:
            h = Polynomial.one(n, m)
        g = g * h
        assert all(
            not diffops.divided_difference(g, j) for j in range(i + 1, i + k + 1)
        )
        js = [rng.randint(1, m) for _ in range(k + 1)]
        lhs = g
        for a in range(k + 1):
            lhs = diffops.pibar_double(lhs, i + a, js[a])
        rhs = math.prod((diffops._xy_factor(i, j, n, m, barred=True) for j in js), start=g)
        for a in range(k + 1):
            rhs = diffops.isobaric(rhs, i + a)
        res.check(lhs == rhs, f"pi-to-del fails at trial {t} (k={k})")
    return res


def suite_triangularity(nmax: int) -> SuiteResult:
    """The Lascoux expander's premises for entries <= 4, and 200 round-trips, n in [1, nmax]."""
    if nmax < 1:
        raise ValueError(f"triangularity needs nmax >= 1, got {nmax}")
    res = SuiteResult("triangularity")
    for n in range(1, nmax + 1):
        for beta in product(range(5), repeat=n):
            L = families.lascoux(beta)
            res.check(
                L.coefficient(beta) == 1,
                f"x^beta coefficient != 1 at beta={beta}",
            )
            res.check(
                L.min_degree() == sum(beta),
                f"lowest degree != |beta| at beta={beta}",
            )
            low = L.lowest_degree_part()
            res.check(
                min(xe for xe, _ in low.to_dict()) == beta,
                f"x^beta not lex-minimal in lowest part at beta={beta}",
            )
            cap = max(beta, default=0)
            res.check(
                L.max_exponent() <= cap,
                f"per-variable degree exceeds max entry at beta={beta}",
            )
    rng = random.Random(11)
    for t in range(200):
        n = rng.randint(1, nmax)
        f = random_polynomial(rng, n, 0, maxdeg=3, nterms=4)
        e = lascouxbasis.lascoux_expand(f)
        res.check(lascouxbasis.reconstruct(n, e) == f, f"round-trip fails at trial {t}")
    return res


# -- ambiguity resolution report ------------------------------------------


def ambiguity_report(nmax_omega: int, nmax_endpoint: int) -> str:
    """One-page report pinning down the two notational ambiguities.

    Records which inner-omega barring makes the orthodontia evaluator
    reproduce the recursion (the thm11 checks, one G sweep for both), which
    product endpoint makes the sorted-case sequence transformation hold
    (the thm-os2 checks, one pass for both), and the observed lowest-degree
    relation between the two evaluators.  An nmax_omega past the pipe-dream
    walk, or a section with no w to check, is a ValueError, raised before
    any polynomial is built.
    """
    checks = _thm11_checks(nmax_omega, (True, False))  # refuses nmax_omega > MAX_N first
    # thm-os2 builds no polynomial, so it runs next; thm11 builds one for every
    # w it sweeps, so its section is empty exactly when _perms yields no w
    endpoint = _thm_os2(nmax_endpoint, ("alpha-plus-one", "alpha"))
    for section, nmax, empty in (("omega", nmax_omega, next(_perms(nmax_omega), None) is None),
                                 ("endpoint", nmax_endpoint, endpoint["alpha"].checked == 0)):
        if empty:
            raise ValueError(f"the {section} section checks nothing at nmax_{section}={nmax}")
    both = _sweep(nmax_omega, checks)
    sections = {  # heading: (result, subject, what holds, failure verb) per reading
        "Inner omega factors: barred vs unbarred": [
            (_result("thm11", {w: (oks[0], oks[b]) for w, oks in both.items()}, _THM11),
             f"{reading} inner omegas",
             f"reproduce the recursion for all w up to S_{nmax_omega}", "FAIL")
            for b, reading in ((1, "barred"), (2, "unbarred"))],
        "Sorted-case product endpoint: alpha vs alpha+1": [
            (res, f"endpoint {e}",
             f"satisfies the sequence transformation up to S_{nmax_endpoint}", "FAILS")
            for e, res in endpoint.items()],
    }
    lines = ["# Ambiguity resolution report", ""]
    for heading, readings in sections.items():
        lines.append(f"## {heading}")
        for res, subject, holds, fails in readings:
            bad = None if res.passed else format_perm(res.first_failing)
            lines.append(f"- {subject} {holds}" if bad is None
                         else f"- {subject} {fails}; first counterexample w={bad}")
        lines.append("")

    lines.append("## Lowest-degree relation between the two evaluators")
    pairs, skipped = [], 0
    for D in (Diagram(3, cols) for cols in diagrams.avoiding_masks(3, 3)):
        try:
            pairs.append((D, families.script_S(D), families.script_G(D)))
        except ValueError:
            # recorded column index outside [1, m]: unspecialized
            # evaluators undefined for this diagram
            skipped += 1
    for name, side in (("script_G", lambda G: G), ("negate_y(script_G)", Polynomial.negate_y)):
        bad = next((diagrams.format_diagram(D) for D, sS, sG in pairs
                    if sS != side(sG.lowest_degree_part())), None)
        lines.append(f"- script_S = lowest_degree_part({name}) " + (
            "holds for all %-avoiding D in [3]x[3]" if bad is None else f"fails at {bad}"))
    lines.append(
        f"- {skipped} diagrams skipped (column index outside [1,m]; evaluators undefined)"
    )
    return "\n".join(lines) + "\n"
