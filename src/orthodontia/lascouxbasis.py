"""Expansion in the Lascoux basis and the positivity check pipelines.

An expansion sum c_alpha L_alpha is a plain dict alpha -> c_alpha, and
``_rendered`` alone writes one as a record's text: the sorted coefficient
list, d0 and the graded-positivity verdict.  The expander peels off the
lex-minimal monomial of the lowest-degree part of the remainder, and
subtracts its multiple of L_beta from a mutable ``Remainder`` in place.
Termination rests on the triangularity of the basis, which the test suite
verifies as a premise rather than assuming.

``theorem12_check`` never builds a polynomial of its own.  By Lemma 4's
intertwinings, flip(script_S(D)|_{y -> -1}, ncols) is L_{0^n} acted on by
phi_{n-i}^{|M|} and pibar_{n-i} for each orthodontic step (i, j, M), then
phi_{n-a}^{|K_a|}, times (x_1 ... x_n)^(ncols - c), c the number of
nonempty columns.  The walk applies those operators to a dict
alpha -> c_alpha, each one loop adding into a fresh dict: pibar_i moves an
index (`_times_pibar`), phi_i reads its expansion of L_alpha from the memo
`_phi` (`_times_phi`), and the last factor, when there is an empty column,
adds ncols - c to every part (L_{alpha + 1^n} = x_1 ... x_n L_alpha).  The
walk reads only the key (n, ncols, the rows i_k, the sizes |M_k|, the sizes
|K_a|), which `_theorem12_key` reads off the column masks with
``diagrams._orthodontia``, and `_theorem12` memoizes each expansion on it
(3527 keys for the %-avoiding diagrams in [4] x [4]).  A scan record is its
item plus what the key fixes, so each entry also keeps, written once, the
verdict and the record text before and after its item; a scan worker
returns (item, verdict, head, tail) and the CLI splices the item in.
``conj15_item`` reads phi_i(L_alpha) from the same `_phi`.  The CLI
commands that fill the memos, ``scan`` and ``check``, start them both empty.
"""

from __future__ import annotations

from itertools import product

from . import diagrams, families, permcomb
from .diagrams import Diagram
from .diffops import phi
from .permcomb import Composition
from .polyring import EXP_LIMIT, ExponentRangeError, Polynomial, Remainder


class ExpansionError(RuntimeError):
    pass


def lascoux_expand(f: Polynomial) -> dict[Composition, int]:
    """The unique coefficients alpha -> c_alpha with sum c_alpha L_alpha = f."""
    if f.m != 0:
        raise ValueError("lascoux_expand requires a polynomial without y variables")
    cap = (f.max_exponent() + 1) ** f.n
    coeffs: dict[Composition, int] = {}
    r = Remainder(f)
    for _ in range(cap + 1):
        if not r:
            return {alpha: c for alpha, c in coeffs.items() if c}
        (beta, _), c = r.lowest()
        coeffs[beta] = coeffs.get(beta, 0) + c
        r.subtract(families.lascoux(beta), c)
    raise ExpansionError(
        f"expansion did not terminate within {cap} steps; triangularity premise violated?"
    )


def reconstruct(n: int, coeffs: dict[Composition, int]) -> Polynomial:
    """sum c_alpha L_alpha in n x-variables."""
    return sum((families.lascoux(alpha).scale(c) for alpha, c in coeffs.items()), Polynomial.zero(n))


def baseline_degree(coeffs: dict[Composition, int]) -> int:
    """d0: the least |alpha| in the support, 0 when it is empty.  L_alpha's lowest part
    is kappa_alpha, of degree |alpha|, and the kappas are a basis, so d0 = min deg f."""
    return min(map(sum, coeffs), default=0)


# (alpha, i) -> expansion of phi_i(L_alpha)
_phi: dict[tuple[Composition, int], dict[Composition, int]] = {}


def _phi_expansion(alpha: Composition, i: int) -> dict[Composition, int]:
    """The expansion of phi_i(L_alpha), memoized in `_phi`; callers must not edit it."""
    e = _phi.get((alpha, i))
    if e is None:
        e = _phi[alpha, i] = lascoux_expand(phi(families.lascoux(alpha), i))
    return e


def _times_phi(coeffs: dict[Composition, int], i: int, times: int) -> dict[Composition, int]:
    """The expansion of phi_i^times applied to sum c_alpha L_alpha, zero sums kept."""
    for _ in range(times):
        out: dict[Composition, int] = {}
        get = out.get
        for alpha, c in coeffs.items():
            for beta, b in _phi_expansion(alpha, i).items():
                out[beta] = get(beta, 0) + c * b
        coeffs = out
    return coeffs


def _times_pibar(coeffs: dict[Composition, int], i: int) -> dict[Composition, int]:
    """The expansion of pibar_i applied to sum c_alpha L_alpha, zero sums kept:
    pibar_i(L_alpha) is L_{alpha s_i} if alpha_i > alpha_{i+1}, else L_alpha."""
    out: dict[Composition, int] = {}
    get = out.get
    for alpha, c in coeffs.items():
        a, b = alpha[i - 1:i + 1]
        if a > b:
            alpha = (*alpha[:i - 1], b, a, *alpha[i + 1:])
        out[alpha] = get(alpha, 0) + c
    return out


# (n, ncols, i, |M_k|, |K_a|) -> (coeffs, *_rendered(coeffs)): the expansion of
# flip(script_S(D)|_{y -> -1}, ncols), then the text that its scan records share
_theorem12: dict[tuple, tuple[dict[Composition, int], str, str, str]] = {}


def _theorem12_key(n: int, cols: list[int]) -> tuple:
    """The key in `_theorem12` of the diagram in [n] x [len(cols)] with these column masks,
    which the orthodontia core consumes; filled on a miss, and its entry must not be edited."""
    K, steps = diagrams._orthodontia(n, cols)
    key = (n, len(cols), tuple(i for i, _, _ in steps),
           tuple(M.bit_count() for _, _, M in steps), tuple(k.bit_count() for k in K))
    if key not in _theorem12:
        n, ncols, rows, M, K = key
        # the order of families._evaluate_diagram: steps l..1, then the outer omegas
        coeffs = {(0,) * n: 1}
        for i, size in zip(reversed(rows), reversed(M)):
            coeffs = _times_pibar(_times_phi(coeffs, n - i, size), n - i)
        for a, size in enumerate(K, 1):
            coeffs = _times_phi(coeffs, n - a, size)
        coeffs = {alpha: c for alpha, c in coeffs.items() if c}
        if empty := ncols - sum(M) - sum(K):  # x_1 ... x_n per empty column
            coeffs = {tuple(p + empty for p in alpha): c for alpha, c in coeffs.items()}
        _theorem12[key] = (coeffs, *_rendered(coeffs))
    return key


def theorem12_check(D: Diagram, require_inclusion: bool = True) -> dict[Composition, int]:
    """Expand flip(script_S(D)|_{y -> -1}, ncols); Theorem 12 says it is graded positive.

    The expansion is built in the Lascoux basis and memoized (see the
    module docstring); each call returns its own copy of the coefficient dict.
    """
    if require_inclusion and not diagrams.columns_ordered_by_inclusion(D):
        raise ValueError("columns are not ordered by inclusion "
                         "(`orthodontia check thm12 --no-require-inclusion` skips this check)")
    return dict(_theorem12[_theorem12_key(D.nrows, list(D.columns))][0])


# -- scan items (module-level so they pickle for worker pools) ------------


def _rendered(coeffs: dict[Composition, int]) -> tuple[str, str, str]:
    """(verdict, head, tail): head + the item encoded + tail is json.dumps(record, sort_keys=True)
    of {"item", "verdict", "expansion": [{"alpha", "c"}, ...] in alpha order, "d0"}, written
    directly; the verdict is positive when sign(c_alpha) = (-1)^(|alpha| - d0) for every c_alpha."""
    terms = sorted(coeffs.items())
    d0 = baseline_degree(coeffs)
    positive = all((c > 0) == ((sum(alpha) - d0) % 2 == 0) for alpha, c in terms)
    verdict = "positive" if positive else "violation"
    # the repr of a list of ints is its JSON
    expansion = ", ".join([f'{{"alpha": {list(alpha)}, "c": {c}}}' for alpha, c in terms])
    return (verdict, f'{{"d0": {d0}, "expansion": [{expansion}], "item": ',
            f', "verdict": "{verdict}"}}')


def conj15_item(args: tuple[Composition, int]) -> tuple:
    alpha, i = args
    return ({"alpha": list(alpha), "i": i}, *_rendered(_phi_expansion(alpha, i)))


def conj15_items(n: int, maxentry: int) -> list[tuple[Composition, int]]:
    if maxentry >= EXP_LIMIT:  # refused before (maxentry + 1)^n * n items are built
        raise ExponentRangeError(f"max entry {maxentry} outside [0, {EXP_LIMIT})")
    return [
        (alpha, i)
        for alpha in product(range(maxentry + 1), repeat=n)
        for i in range(1, n + 1)
    ]


def conj14_item(args: tuple[int, tuple[int, ...]]) -> tuple:
    n, cols = args
    key = _theorem12_key(n, list(cols))
    return ({"diagram": diagrams.format_masks(n, cols)}, *_theorem12[key][1:])


def conj14_items(n: int, m: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, the column masks) of each %-avoiding diagram in [n] x [m]."""
    return [(n, cols) for cols in diagrams.avoiding_masks(n, m)]


def thm12_vexillary_item(w) -> tuple:
    key = _theorem12_key(len(w), list(diagrams.rothe(w).columns))
    return ({"w": permcomb.format_perm(w)}, *_theorem12[key][1:])


def thm12_vexillary_items(nmax: int) -> list:
    return [w for w in permcomb.all_perms(nmax) if permcomb.is_vexillary(w)]
