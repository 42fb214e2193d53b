"""The routes that the suites compare share no engine code outside the kernel.

Two routes that shared a wrong helper would still agree, so agreement alone
does not show that they are independent.  Each route runs here on every w in
S_1..S_4 under `sys.setprofile`, which records the engine functions it enters.
Outside `polyring` (the kernel, checked against sympy on its own) and
`permcomb`, the routes each suite compares must enter disjoint sets of them.
"""

import sys

import pytest

from orthodontia import families, permcomb, pipedreams
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
    """The engine functions run() enters outside SHARED_MODULES, as (module, name, first line).

    The first line tells apart functions of one module that share a name,
    such as its lambdas and generator expressions.
    """
    entered = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        if module.startswith("orthodontia.") and module not in SHARED_MODULES:
            entered.add((module, frame.f_code.co_name, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


@pytest.fixture(scope="module")
def entered():
    return {name: _entered(run) for name, run in ROUTES.items()}


@pytest.mark.parametrize("suite", sorted(SUITE_ROUTES))
def test_compared_routes_share_no_engine_function(suite, entered):
    routes = SUITE_ROUTES[suite]
    for k, a in enumerate(routes):
        assert entered[a], a
        for b in routes[k + 1:]:
            shared = {(module, name) for module, name, _ in entered[a] & entered[b]}
            assert shared <= ALLOWED.get(frozenset({a, b}), set()), (a, b, shared)
