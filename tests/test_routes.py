"""The routes that the suites compare share no engine code outside the kernel.

Two routes that shared a wrong helper would still agree, so agreement alone
does not show that they are independent.  Each route runs here on every w in
S_1..S_4 under `sys.setprofile`, which records the engine functions it enters.
Outside `polyring` (the kernel, checked against sympy on its own) and
`permcomb`, the routes each suite compares must enter disjoint sets of them,
and each `polyring` function a route enters must have a sympy oracle test in
`test_kernel_oracle.py`.
The theorem-12 walk and the polynomial it stands for (`tests/neg1.py`),
expanded by `lascoux_expand`, are compared the same way on the
%-avoiding diagrams in [3] x [2].
"""

import ast
import inspect
import sys
import types
from pathlib import Path

import pytest

import neg1
from diagram_sets import conj14_diagrams
from orthodontia import diffops, families, lascouxbasis, permcomb, pipedreams, polyring
from orthodontia.diagrams import rothe

PERMS = [w for n in range(1, 5) for w in permcomb.all_perms(n)]

SHARED_MODULES = {"orthodontia.polyring", "orthodontia.permcomb"}


def _sweep_all(sweep):
    for n in range(1, 5):
        for _ in sweep(n):
            pass


ROUTES = {
    "G chain": lambda: _sweep_all(families.double_grothendieck_sweep),
    "pipe-dream walk": lambda: [pipedreams.weight_sum(w) for w in PERMS],
    "script_G": lambda: [families.script_G(rothe(w)) for w in PERMS],
    "S chain": lambda: _sweep_all(families.double_schubert_sweep),
    "script_S": lambda: [families.script_S(rothe(w)) for w in PERMS],
}

# the routes each suite compares, and the (module, name) functions two of them may share
SUITE_ROUTES = {
    "thm11": ("G chain", "pipe-dream walk", "script_G"),
    "cor-double-schub": ("S chain", "script_S"),
}
ALLOWED = {frozenset({"G chain", "script_G"}): {("orthodontia.diffops", "_one_minus_x")}}


def _entered(run) -> set[tuple[str, str, int]]:
    """The engine functions run() enters, as (module, name, first line).

    The first line tells apart functions of one module that share a name,
    such as its lambdas and generator expressions.
    """
    entered = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        if module.startswith("orthodontia."):
            entered.add((module, frame.f_code.co_name, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


def _engine(entered):
    """The functions of entered outside SHARED_MODULES."""
    return {f for f in entered if f[0] not in SHARED_MODULES}


@pytest.fixture(scope="module")
def entered():
    return {name: _entered(run) for name, run in ROUTES.items()}


@pytest.mark.parametrize("suite", sorted(SUITE_ROUTES))
def test_compared_routes_share_no_engine_function(suite, entered):
    routes = SUITE_ROUTES[suite]
    for k, a in enumerate(routes):
        assert _engine(entered[a]), a
        for b in routes[k + 1:]:
            shared = {(module, name) for module, name, _ in _engine(entered[a]) & _engine(entered[b])}
            assert shared <= ALLOWED.get(frozenset({a, b}), set()), (a, b, shared)


# each polyring function a route may enter, and the test of test_kernel_oracle.py that
# checks it against sympy
KERNEL_ORACLES = {
    **dict.fromkeys(["_Layout.__init__", "_layout", "_encode", "_from_keys", "_same_ambient",
                     "_axpy", "_add_product", "Polynomial.__init__", "Polynomial.__add__",
                     "Polynomial._plus", "Polynomial.__sub__", "Polynomial.__mul__"],
                    "test_ring_operations_match_sympy"),
    "Polynomial.__eq__": "test_equality_holds_exactly_when_the_term_lists_and_ambients_agree",
    **dict.fromkeys(["Polynomial.zero", "Polynomial.const", "Polynomial.one", "Polynomial.var_x",
                     "Polynomial.var_y"], "test_constructors_match_sympy"),
    **dict.fromkeys(["Polynomial.add_times_divided_difference", "Polynomial._add_divided_difference"],
                    "test_add_times_divided_difference_matches_sympy"),
    "Polynomial._divided_difference": "test_divided_difference_and_isobaric_match_sympy",
    **dict.fromkeys(["Remainder.__init__", "Remainder.add_product", "Remainder.polynomial"],
                    "test_remainder_add_product_matches_sympy"),
}


def _kernel_owners() -> dict[tuple[str, int], str]:
    """(name, first line) of each code object of polyring -> the function or method it is part of."""
    owners = {}

    def walk(code, owner):
        owners[code.co_name, code.co_firstlineno] = owner
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, owner)

    for name, obj in vars(polyring).items():
        own = isinstance(obj, type) and obj.__module__ == polyring.__name__
        for attr, fn in vars(obj).items() if own else [("", obj)]:
            fn = inspect.unwrap(getattr(fn, "__func__", fn))  # staticmethods, functools.cache
            if inspect.isfunction(fn) and fn.__module__ == polyring.__name__:
                walk(fn.__code__, f"{name}.{attr}" if attr else name)
    return owners


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_kernel_function_a_route_enters_has_an_oracle_test(route, entered):
    owners = _kernel_owners()
    kernel = {owners[name, line] for module, name, line in entered[route]
              if module == polyring.__name__}
    assert "_axpy" in kernel, kernel
    assert kernel <= set(KERNEL_ORACLES), sorted(kernel - set(KERNEL_ORACLES))
    oracle = ast.parse((Path(__file__).parent / "test_kernel_oracle.py").read_text())
    tests = {node.name for node in oracle.body if isinstance(node, ast.FunctionDef)}
    assert {KERNEL_ORACLES[name] for name in kernel} <= tests


# the %-avoiding diagrams in [3] x [2], on which the theorem-12 walk meets its reference: the
# scan's (n, column masks) items, and the same diagrams as Diagrams
CONJ14 = lascouxbasis.conj14_items(3, 2)
CONJ14_DIAGRAMS = conj14_diagrams(3, 2)
# the walk's own functions, which the reference must not enter
WALK_OWN = {("orthodontia.lascouxbasis", name) for name in (
    "_theorem12_key", "_times_phi", "_times_pibar", "_phi_expansion", "theorem12_check")} | {
    ("orthodontia.diffops", "phi"), ("orthodontia.diffops", "_phi_factor")}
# what the two may share, a comprehension keyed by its module: the mask core of the orthodontic
# sequence of D, which both read (the walk builds no OrthodonticSequence, so it shares neither
# orthodontic_sequence nor its __init__), with the interval test and the tooth finder it calls,
# and the Lascoux expander with the chain that builds each L_beta it peels
THM12_SHARED = {
    *(("orthodontia.diagrams", name) for name in (
        "_orthodontia", "is_standard", "smallest_missing_tooth", "_avoiding", "ncols", "<genexpr>",
        "<listcomp>")),
    *(("orthodontia.lascouxbasis", name) for name in ("lascoux_expand", "<dictcomp>")),
    *(("orthodontia.families", name) for name in ("lascoux", "_chain", "_first_ascent", "<genexpr>")),
    ("orthodontia.diffops", "demazure_lascoux"), ("orthodontia.diffops", "_one_minus_x"),
}


def _fresh_memos():
    """Empty every memo either route fills, so each route enters what a cold run enters."""
    for memo in lascouxbasis._theorem12, lascouxbasis._phi, families._lascoux:
        memo.clear()
    diffops._phi_factor.cache_clear()
    neg1._omega_neg1.cache_clear()


def test_theorem12_walk_shares_only_the_expander_with_its_reference():
    assert len(CONJ14) == len(CONJ14_DIAGRAMS) == 54
    _fresh_memos()
    # the walk as the scan runs it, from the masks, then as check thm12 does, from a Diagram
    walk = _engine(_entered(lambda: (
        [lascouxbasis.conj14_item(item) for item in CONJ14],
        [lascouxbasis.theorem12_check(D, require_inclusion=False) for D in CONJ14_DIAGRAMS])))
    # the reference expands the polynomial that the walk stands for
    _fresh_memos()
    reference = _engine(_entered(lambda: [
        lascouxbasis.lascoux_expand(neg1.script_S_neg1(D).flip(D.ncols)) for D in CONJ14_DIAGRAMS]))
    assert WALK_OWN <= {(module, fn) for module, fn, _ in walk}
    assert not WALK_OWN & {(module, fn) for module, fn, _ in reference}
    shared = {(module, fn) for module, fn, _ in walk & reference}
    assert shared <= THM12_SHARED, shared - THM12_SHARED
