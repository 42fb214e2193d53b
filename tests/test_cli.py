"""End-to-end tests for the command-line interface."""

import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import orthodontia
from orthodontia import diagrams, families, lascouxbasis, permcomb, pipedreams, sortorder, suites
from orthodontia.cli import EXIT_CRASH, EXIT_MATH_FAILURE, FAMILIES, SCANS, SUITES, main
from orthodontia.polyring import EXP_LIMIT, JSON_BATCH, Polynomial

from diagram_sets import conj14_diagrams
from scanline import reference_record

# bench/workloads.py holds the digest rule of the frozen stdout digests and reads their goldens
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


@pytest.fixture()
def runner():
    return CliRunner()


def test_poly_double_grothendieck(runner):
    r = runner.invoke(main, ["poly", "double-grothendieck", "--w", "21"])
    assert r.exit_code == 0
    assert r.output.strip() == "y1 + x1 - x1*y1"


def test_poly_json_and_latex(runner):
    r = runner.invoke(main, ["poly", "schubert", "--w", "321", "--json"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["terms"] == [{"x": [2, 1, 0], "y": [], "c": 1}]
    r = runner.invoke(main, ["poly", "schubert", "--w", "321", "--latex"])
    assert r.output.strip() == "x_1^{2} x_2"


def test_poly_json_larger_than_one_batch(runner):
    # 8119 terms: json_chunks writes them as one whole batch and part of a second
    p = families.double_grothendieck((1, 5, 4, 3, 2))
    assert JSON_BATCH < len(p.terms) < 2 * JSON_BATCH
    r = runner.invoke(main, ["poly", "double-grothendieck", "--w", "15432", "--json"])
    assert r.exit_code == 0
    assert r.stdout == p.to_json() + "\n"
    assert Polynomial.from_json_dict(json.loads(r.stdout)) == p


def test_poly_lascoux_requires_alpha(runner):
    r = runner.invoke(main, ["poly", "lascoux", "--w", "21"])
    assert r.exit_code == 2
    assert "requires --alpha" in r.output


@pytest.mark.parametrize("top", [EXP_LIMIT])
def test_poly_exponent_over_limit_is_a_usage_error(runner, top):
    # EXP_LIMIT is rejected on input
    r = runner.invoke(main, ["poly", "lascoux", "--alpha", f"0,{top}"])
    assert r.exit_code == 2
    assert "exponent" in r.output


@pytest.mark.parametrize("n", [0, 1, 2, 6, EXP_LIMIT - 1])
def test_poly_lascoux_0_n_closed_form(runner, n):
    # L_(0,n) = sum_{k=0..n} x1^k x2^(n-k) - sum_{k=1..n} x1^k x2^(n+1-k), 2n+1 terms.
    # At n = EXP_LIMIT - 1 every exponent is representable: the operators form
    # no intermediate product such as x_1 x_2^n, so the answer is exact.
    r = runner.invoke(main, ["poly", "lascoux", "--alpha", f"0,{n}", "--json"])
    assert r.exit_code == 0
    want = {((k, n - k), ()): 1 for k in range(n + 1)}
    want.update({((k, n + 1 - k), ()): -1 for k in range(1, n + 1)})
    assert Polynomial.from_json_dict(json.loads(r.output)).to_dict() == want
    assert len(want) == 2 * n + 1


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv)) for argv, message in [
        (["poly", "double-grothendieck", "--w", "1x3"], "'1x3'"),
        (["poly", "double-grothendieck", "--w", "11"], "not a permutation of [2]"),
        (["poly", "schubert", "--w", "1x3"], "'1x3'"),
        (["poly", "lascoux", "--alpha", "0,-1"], "must be nonnegative"),
        (["poly", "key", "--alpha", "0,a"], "'0,a'"),
        (["poly", "script-G", "--diagram", "n=2;3"], "row index 3 outside [1,2]"),
        (["poly", "script-G", "--diagram", "n=2;0"], "row index 0 outside [1,2]"),
        (["poly", "script-G", "--diagram", "n=2;-1"], "row index -1 outside [1,2]"),
        (["poly", "script-S", "--diagram", "2;1"], "must start with 'n=<int>'"),
        (["poly", "script-G", "--diagram", "n=-1;"], "nrows must be >= 0, got -1"),
        (["pipedreams", "--w", "1x3"], "'1x3'"),
        (["orthodontia", "--diagram", "n=2;3"], "row index 3 outside [1,2]"),
        (["orthodontia", "--diagram", "n=2;0"], "row index 0 outside [1,2]"),
        (["orthodontia", "--diagram", "n=2;-1"], "row index -1 outside [1,2]"),
        (["orthodontia", "--diagram", "n=-1;"], "nrows must be >= 0, got -1"),
        (["orthodontia", "--diagram", "n=2;1,y"], "'n=2;1,y'"),
        (["sortorder", "--w", "11"], "not a permutation of [2]"),
        (["check", "thm12", "--diagram", "n=x;1"], "'n=x;1'"),
        (["scan", "conj15", "--n", "-1"], "not in the range"),
        (["scan", "conj15", "--n", "1", "--max-entry", "-1"], "not in the range"),
        (["scan", "conj14", "--m", "-1"], "not in the range"),
        (["scan", "thm12-vexillary", "--nmax", "-1"], "not in the range"),
        (["scan", "conj14", "--workers", "0"], "not in the range"),
    ]
])
def test_malformed_input_is_a_usage_error(runner, argv, message):
    r = runner.invoke(main, argv)
    assert r.exit_code == 2, r.output
    assert "Invalid value" in r.output
    assert message in r.output
    assert "invalid literal" not in r.output and "shift count" not in r.output


@pytest.mark.parametrize("argv, unread", [
    pytest.param(argv, unread, id=" ".join(argv)) for argv, unread in [
        (["poly", "schubert", "--w", "21", "--nvars", "5"], "--nvars"),
        (["poly", "lascoux", "--alpha", "1,0", "--w", "21"], "--w"),
        (["poly", "double-grothendieck", "--w", "21", "--unbarred-inner-omega"],
         "--unbarred-inner-omega"),
        (["scan", "conj15", "--n", "2", "--m", "7"], "--m"),
        (["scan", "thm12-vexillary", "--n", "3"], "--n"),
    ]
])
def test_unread_option_is_a_usage_error(runner, argv, unread):
    r = runner.invoke(main, argv)
    assert r.exit_code == 2, r.output
    assert f"{argv[1]} does not read {unread}" in r.output


@pytest.mark.parametrize("argv, options", [
    pytest.param(argv, options, id=" ".join(argv)) for argv, options in [
        (["poly", "schubert", "--w", "321", "--json", "--latex"], "--json and --latex"),
        (["pipedreams", "--w", "132", "--count", "--emit-json"], "--count and --emit-json"),
    ]
])
def test_conflicting_options_are_a_usage_error(runner, argv, options):
    r = runner.invoke(main, argv)
    assert r.exit_code == 2, r.output
    assert f"{options} cannot be used together" in r.output


def test_scan_with_no_items_is_a_usage_error(runner):
    r = runner.invoke(main, ["scan", "conj15", "--n", "0"])
    assert r.exit_code == 2, r.output
    assert "scan conj15 --n 0 --max-entry 2 checks nothing" in r.output


def test_unexpected_error_exits_3_with_one_line(runner, monkeypatch):
    def broken(w):
        raise RuntimeError("injected\nfailure")

    monkeypatch.setattr(families, "schubert", broken)
    r = runner.invoke(main, ["poly", "schubert", "--w", "21"])
    assert r.exit_code == EXIT_CRASH == 3
    assert r.stderr == "error: RuntimeError: injected failure\n"
    assert r.stdout == ""
    # a caller that handles exceptions itself sees the code too
    with pytest.raises(SystemExit) as exc:
        main.main(args=["poly", "schubert", "--w", "21"], standalone_mode=False)
    assert exc.value.code == EXIT_CRASH


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_exponent_over_limit_is_a_usage_error(runner, monkeypatch, workers):
    # phi multiplies L_(32767) by x_1, which raises ExponentRangeError (a ValueError) in the
    # worker; a pool re-raises it in the parent, so both paths exit 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    r = runner.invoke(main, ["scan", "conj15", "--n", "1", "--max-entry", "32767",
                             "--workers", workers])
    assert r.exit_code == 2, r.output
    assert f"Error: a product exponent reaches {EXP_LIMIT}" in r.output


def test_scan_max_entry_at_the_limit_is_refused_before_any_item_is_built(runner, monkeypatch):
    # (max_entry + 1)^n * n items would exhaust memory before the first one is refused, so
    # conj15_items refuses the bound before its product yields an item
    built = []
    monkeypatch.setattr(lascouxbasis, "product", lambda *args, **kw: built.append(args) or iter(()))
    r = runner.invoke(main, ["scan", "conj15", "--n", "2", "--max-entry", "40000"])
    assert r.exit_code == 2, r.output
    assert f"Error: max entry 40000 outside [0, {EXP_LIMIT})" in r.output
    assert built == []


@pytest.mark.parametrize("argv, owner, attr", [
    pytest.param(argv, owner, attr, id=argv[0]) for argv, owner, attr in [
        (["poly", "schubert", "--w", "21"], families, "schubert"),
        (["pipedreams", "--w", "21"], pipedreams, "enumerate_pd"),
        (["orthodontia", "--diagram", "n=2;1;"], diagrams, "orthodontic_sequence"),
        (["sortorder", "--w", "21"], sortorder, "primary_column_data"),
        (["verify", "thm11"], suites, "suite_thm11"),
        (["scan", "conj15", "--n", "1", "--max-entry", "1"], lascouxbasis, "conj15_item"),
        (["check", "thm12", "--diagram", "n=2;1;"], lascouxbasis, "theorem12_check"),
        (["report", "ambiguities"], suites, "ambiguity_report"),
    ]
])
def test_engine_value_error_exits_2_from_every_command(runner, monkeypatch, argv, owner, attr):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, attr, broken)
    else:
        monkeypatch.setattr(owner, attr, broken)
    r = runner.invoke(main, argv)
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith(f"Usage: main {argv[0]} ")
    assert r.stderr.endswith("\nError: injected\n")
    assert r.stdout == ""


def test_poly_script_families(runner):
    r = runner.invoke(main, ["poly", "script-G", "--diagram", "n=2;1;"])
    assert r.exit_code == 0
    assert r.output.strip() == "y1 + x1 - x1*y1"
    r = runner.invoke(main, ["poly", "script-S", "--diagram", "n=2;1;"])
    assert r.output.strip() == "y1 + x1"


@pytest.mark.parametrize("family", ["script-S", "script-G"])
def test_script_evaluator_is_refused_where_a_column_index_is_out_of_range(runner, family):
    # the single nonempty column {2} records j = 0; the message names the command that does
    # check such a diagram, at y = -1
    r = runner.invoke(main, ["poly", family, "--diagram", "n=2;2;"])
    assert r.exit_code == 2, r.output
    assert r.stderr.endswith(
        "\nError: orthodontic column indices [0] fall outside [1,2]; the unspecialized evaluator "
        "is undefined here (`orthodontia check thm12` checks its y -> -1 specialization)\n")
    assert r.stdout == ""
    r = runner.invoke(main, ["check", "thm12", "--diagram", "n=2;2;"])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("verdict: positive")


@pytest.mark.parametrize("argv", [
    "orthodontia --diagram n=2;2;1",
    "poly script-G --diagram n=2;2;1",
    "check thm12 --diagram n=2;2;1 --no-require-inclusion",
    "check thm12 --diagram n=2;2;1",
])
def test_refusals_name_command_line_flags(runner, argv):
    # n=2;2;1 is not %-avoiding, and its columns are not ordered by inclusion; the message
    # names what a user can run, not a keyword argument of the engine
    r = runner.invoke(main, argv.split())
    assert r.exit_code == 2, r.output
    assert "=True" not in r.output and "=False" not in r.output


def test_poly_stable(runner):
    r = runner.invoke(main, ["poly", "stable-grothendieck", "--w", "21", "--nvars", "2"])
    assert r.exit_code == 0
    assert r.output.strip() == "x2 + x1 - x1*x2"


def test_pipedreams_count(runner):
    r = runner.invoke(main, ["pipedreams", "--w", "1423", "--count"])
    assert r.exit_code == 0
    assert r.output.strip() == "5"


def test_pipedreams_json_lines(runner):
    r = runner.invoke(main, ["pipedreams", "--w", "132", "--emit-json"])
    assert r.exit_code == 0
    lines = [json.loads(s) for s in r.output.strip().splitlines() if s.startswith("[")]
    assert [[1, 2]] in lines and [[2, 1]] in lines and [[1, 2], [2, 1]] in lines


def test_orthodontia_command(runner):
    r = runner.invoke(main, ["orthodontia", "--diagram", "n=5;1;1,3,4;;3;", "--json"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["i"] == [2, 3, 1]
    assert d["j"] == [1, 1, 3]
    assert d["M"] == [[], [2], [4]]
    assert d["K"] == [[1], [], [], [], []]


@pytest.mark.parametrize("text, out, as_json", [
    ("n=3;;;", "K = K_1={}, K_2={}, K_3={}\ni = []\nj = []\nM = \n",
     '{"K": [[], [], []], "i": [], "j": [], "M": []}\n'),
    ("n=2;1;1,2;", "K = K_1=[1], K_2=[2]\ni = []\nj = []\nM = \n",
     '{"K": [[1], [2]], "i": [], "j": [], "M": []}\n'),
])
def test_orthodontia_command_with_no_steps(runner, text, out, as_json):
    r = runner.invoke(main, ["orthodontia", "--diagram", text])
    assert r.exit_code == 0 and r.stdout_bytes == out.encode()
    r = runner.invoke(main, ["orthodontia", "--diagram", text, "--json"])
    assert r.exit_code == 0 and r.stdout_bytes == as_json.encode()


def test_orthodontia_rejects_bad_diagram(runner):
    r = runner.invoke(main, ["orthodontia", "--diagram", "n=2;2;1"])
    assert r.exit_code == 2
    assert "%-avoiding" in r.output


def test_sortorder_command(runner):
    r = runner.invoke(main, ["sortorder", "--w", "68342751"])
    assert r.exit_code == 0
    assert "sigma(w) = 231" in r.output
    assert "w_sort = 68234751" in r.output


@pytest.mark.parametrize("argv, want", [
    (["--w", "1234"], "primary column data: h=4, C={}, alpha=0, i1=4, beta=4\n"
     "sigma(w) = 1234\nw_sort = 1234\npredecessors: (none)\n"),
    (["--w", "68342751"], "primary column data: h=4, C=[1, 2, 6], alpha=2, i1=5, beta=3\n"
     "sigma(w) = 231\nw_sort = 68234751\npredecessors: 68234751\n"),
    (["--w", "31542"], "primary column data: h=1, C=[1, 3, 4], alpha=1, i1=2, beta=1\n"
     "sigma(w) = 1\nw_sort = 31542\npredecessors: 35142\n"),
    (["--w", "31542", "--os-endpoint", "alpha"],
     "primary column data: h=1, C=[1, 3, 4], alpha=1, i1=2, beta=1\n"
     "sigma(w) = 1\nw_sort = 31542\npredecessors: 53142\n"),
])
def test_sortorder_stdout(runner, argv, want):
    # the identity, an unsorted w, and a sorted w under both product endpoints
    r = runner.invoke(main, ["sortorder", *argv])
    assert (r.exit_code, r.output) == (0, want)


def test_sortorder_stdout_matches_its_frozen_digest(runner):
    # every w in S_1..S_6 under both product endpoints
    digest = hashlib.sha256()
    for text in (permcomb.format_perm(w) for n in range(1, 7) for w in permcomb.all_perms(n)):
        for endpoint in ("alpha", "alpha-plus-one"):
            r = runner.invoke(main, ["sortorder", "--w", text, "--os-endpoint", endpoint])
            assert r.exit_code == 0, text
            digest.update(f"{text} {endpoint}\n".encode() + r.stdout_bytes)
    assert digest.hexdigest() == "f06b7133c4c52899e8360e983af07f71c9e94325b8784d1c448d3da71ffb7aa6"


def test_verify_command(runner):
    r = runner.invoke(main, ["verify", "thm11", "--nmax", "3"])
    assert r.exit_code == 0
    assert "0 failed" in r.output


def test_verify_json(runner):
    r = runner.invoke(main, ["verify", "operators", "--nmax", "3", "--json"])
    assert r.exit_code == 0
    jsons = [json.loads(s) for s in r.output.splitlines() if s.startswith("{")]
    (body,) = [d for d in jsons if "summary" in d]
    assert body["summary"]["failed"] == 0
    assert body["counterexamples"] == []


def test_verify_json_lists_every_failure(runner, monkeypatch):
    failures = ["w=21: injected", "w=312: injected"]
    monkeypatch.setattr(suites, "suite_thm11",
                        lambda nmax: suites.SuiteResult("thm11", checked=5, failures=failures))
    r = runner.invoke(main, ["verify", "thm11", "--json"])
    assert r.exit_code == EXIT_MATH_FAILURE, r.output
    *lines, last = r.stdout.splitlines()
    items = [{"suite": "thm11", "failure": f} for f in failures]
    assert lines == [json.dumps({"item": item, "verdict": "violation"}, sort_keys=True)
                     for item in items]
    body = json.loads(last)
    assert body["summary"] == {"checked": 5, "passed": 3, "failed": 2}
    assert body["counterexamples"] == items


def test_verify_honours_nmax(runner):
    # 4 checks for each of the 5^n compositions with n <= 5 and entries <= 4,
    # plus 200 expansion round-trips
    r = runner.invoke(main, ["verify", "triangularity", "--nmax", "5"])
    assert r.exit_code == 0
    assert "triangularity --nmax 5: 15820 checked, 0 failed" in r.output


@pytest.mark.parametrize("suite, nmax", [
    ("operators", 2), ("lemma4", 1), ("triangularity", 0),
    # below these, the suite has no item to check
    ("thm11", 1), ("cor-double-schub", 1), ("prop-os1", 1), ("thm-os2", 2),
])
def test_verify_nmax_below_suite_minimum_is_a_usage_error(runner, suite, nmax):
    r = runner.invoke(main, ["verify", suite, "--nmax", str(nmax)])
    assert r.exit_code == 2
    assert f"got {nmax}" in r.output


def test_verify_unknown_suite_is_a_usage_error(runner):
    r = runner.invoke(main, ["verify", "nope"])
    assert r.exit_code == 2
    assert "'nope' is not one of" in r.output


def _refuse_staircases(monkeypatch) -> list:
    """Record and refuse every staircase product, the first polynomial of any G_w or S_w."""
    calls = []

    def refuse(n, barred):
        calls.append(n)
        raise RuntimeError("a staircase was built")

    monkeypatch.setattr(families, "_staircase_double", refuse)
    return calls


def test_verify_thm11_beyond_the_pipe_dream_walk_refuses_before_any_work(runner, monkeypatch):
    monkeypatch.setattr(pipedreams, "MAX_N", 3)
    calls = _refuse_staircases(monkeypatch)
    r = runner.invoke(main, ["verify", "thm11", "--nmax", "4"])
    assert r.exit_code == 2, r.output
    assert calls == []
    assert "thm11 needs nmax <= 3" in r.output and "got 4" in r.output


def _family_memos() -> dict:
    """The entry count of every private dict of `families`."""
    return {attr: len(obj) for attr, obj in vars(families).items()
            if attr.startswith("_") and isinstance(obj, dict)}


@pytest.mark.parametrize("suite", ["thm11", "cor-double-schub", "prop-os1"])
def test_permutation_suites_leave_the_module_memos_empty(runner, suite):
    # each sweeps S_n with a memo of its own, so no G_w or S_w outlives the command
    before = _family_memos()
    r = runner.invoke(main, ["verify", suite, "--nmax", "4"])
    assert r.exit_code == 0, r.output
    checked = {"thm11": 64, "cor-double-schub": 64, "prop-os1": 128}[suite]
    assert f"{checked} checked, 0 failed" in r.output
    assert _family_memos() == before


def test_verify_choices_are_the_suites():
    # each choice names a suite function, each suite function is a choice, and --help lists
    # them in sorted order
    functions = {name for name in vars(suites) if name.startswith("suite_")}
    assert sorted(SUITES.values()) == sorted(functions)
    assert all(callable(getattr(suites, name)) for name in functions)
    assert list(SUITES) == sorted(SUITES)


ENGINE = {"diagrams", "diffops", "families", "lascouxbasis", "pipedreams", "polyring",
          "sortorder", "suites"}
# prints the package modules a run loaded, once the command has exited
LOADED = ("import atexit, sys\n"
          "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
          "from orthodontia.cli import main\n"
          "main()\n")


@pytest.mark.parametrize("argv, loads", [
    pytest.param(["--help"], set(), id="help"),
    pytest.param(["poly", "script-G", "--diagram", "n=2;1;"],
                 {"diagrams", "diffops", "families", "polyring"}, id="poly"),
    pytest.param(["scan", "conj14", "--n", "2", "--m", "2"],
                 {"diagrams", "diffops", "families", "lascouxbasis", "polyring"}, id="scan"),
])
def test_each_subcommand_loads_only_the_engine_it_runs(argv, loads):
    # a fresh process each: this one has imported every module
    src = str(Path(orthodontia.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("orthodontia.") for m in proc.stderr.split()
              if m.startswith("orthodontia.")}
    assert loaded & ENGINE == loads
    assert {"cli", "permcomb"} <= loaded


# every subcommand once, at a small size and without a pool
SMALL_RUNS = [
    ["poly", "double-grothendieck", "--w", "321", "--json"],
    ["poly", "script-G", "--diagram", "n=3;1;1,2;"],
    ["pipedreams", "--w", "1423"],
    ["orthodontia", "--diagram", "n=3;1;1,2;"],
    ["sortorder", "--w", "2413"],
    *(["verify", suite, "--nmax", "3"] for suite in SUITES),
    ["scan", "conj15", "--n", "2", "--max-entry", "1", "--json", "--workers", "1"],
    ["scan", "conj14", "--n", "3", "--m", "2", "--json", "--workers", "1"],
    ["scan", "thm12-vexillary", "--nmax", "3", "--json", "--workers", "1"],
    ["check", "thm12", "--diagram", "n=3;1;1,2;"],
    ["report", "ambiguities", "--nmax-omega", "3", "--nmax-endpoint", "3"],
]


@pytest.mark.parametrize("argv", [pytest.param(a, id=" ".join(a[:2])) for a in SMALL_RUNS])
def test_subcommands_make_no_reference_cycles(argv):
    # main runs each command with the cyclic collector off, which holds only while the engine
    # leaves no cycle for it to find
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main.main(args=argv, prog_name="orthodontia", standalone_mode=False)
    assert gc.isenabled()
    assert gc.collect() == 0


def test_console_script_freezes_the_heap_at_exit(monkeypatch):
    # the interpreter's exit collections then pass over every object; main itself, which
    # in-process callers run, registers nothing
    from orthodontia import cli

    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    monkeypatch.setattr(sys, "argv", ["orthodontia", "--help"])
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 0
    assert registered == [gc.freeze]
    with contextlib.redirect_stdout(io.StringIO()):
        main.main(args=["--help"], standalone_mode=False)
    assert registered == [gc.freeze]


def test_report_beyond_the_pipe_dream_walk_is_a_usage_error(runner, monkeypatch):
    r = runner.invoke(main, ["report", "ambiguities", "--nmax-omega", str(pipedreams.MAX_N + 1)])
    assert r.exit_code == 2
    assert f"got {pipedreams.MAX_N + 1}" in r.output
    # the omega bound is refused before the endpoint sweep reads any permutation
    read = []
    pcd = sortorder.primary_column_data
    monkeypatch.setattr(sortorder, "primary_column_data", lambda w: read.append(w) or pcd(w))
    r = runner.invoke(main, ["report", "ambiguities", "--nmax-omega", str(pipedreams.MAX_N + 1),
                             "--nmax-endpoint", str(pipedreams.MAX_N + 1)])
    assert r.exit_code == 2
    assert f"got {pipedreams.MAX_N + 1}" in r.output
    assert read == []


def test_scan_command(runner):
    r = runner.invoke(main, ["scan", "conj15", "--n", "2", "--max-entry", "1", "--json"])
    assert r.exit_code == 0
    jsons = [json.loads(s) for s in r.output.splitlines() if s.startswith("{")]
    records = [d for d in jsons if "verdict" in d]
    (body,) = [d for d in jsons if "summary" in d]
    assert all(rec["verdict"] == "positive" for rec in records)
    assert body["summary"]["checked"] == len(records)
    assert body["version"] == orthodontia.__version__


def test_scan_workers(runner, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    r = runner.invoke(main, ["scan", "conj14", "--n", "2", "--m", "2", "--workers", "2"])
    assert r.exit_code == 0
    assert "15 checked, 0 failed" in r.output


def test_scan_json_is_the_same_under_a_pool(runner, monkeypatch):
    # the pool hands its records back in item order, as they complete
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["scan", "conj14", "--n", "3", "--m", "3", "--json", "--workers"]
    one, two = (runner.invoke(main, argv + [w]) for w in ("1", "2"))
    assert one.exit_code == two.exit_code == 0
    assert one.stdout_bytes == two.stdout_bytes
    assert one.stdout.count("\n") > 2


@pytest.mark.parametrize("error, code", [(ValueError, 2), (RuntimeError, EXIT_CRASH)])
def test_scan_json_writes_records_as_they_arrive_and_the_summary_last(
        runner, monkeypatch, error, code):
    argv = ["scan", "conj14", "--n", "3", "--m", "2", "--json"]
    whole = runner.invoke(main, argv).stdout.splitlines(keepends=True)
    k = 4  # the failing item
    item, calls, seen = lascouxbasis.conj14_item, [], []

    def fails_at_k(args):
        calls.append(args)
        if len(calls) == k:
            sys.stdout.flush()
            seen.append(sys.stdout.buffer.getvalue().decode())
            raise error("injected")
        return item(args)

    monkeypatch.setattr(lascouxbasis, "conj14_item", fails_at_k)
    r = runner.invoke(main, argv)
    assert r.exit_code == code, r.output
    assert r.stderr.endswith("injected\n")
    # the first k - 1 records were on stdout before item k was computed, and nothing follows
    assert seen == [r.stdout] == ["".join(whole[: k - 1])]
    assert len(whole) > k and "summary" in whole[-1]


def test_scan_reports_every_violation_of_a_memo_miss_or_hit(runner, monkeypatch):
    # with d0 one too high, every coefficient breaks the sign rule, so every record is a violation
    d0 = lascouxbasis.baseline_degree
    monkeypatch.setattr(lascouxbasis, "baseline_degree", lambda coeffs: d0(coeffs) + 1)
    items = [{"diagram": diagrams.format_masks(*item)} for item in lascouxbasis.conj14_items(3, 3)]
    argv = ["scan", "conj14", "--n", "3", "--m", "3"]
    r = runner.invoke(main, argv + ["--json"])
    assert r.exit_code == EXIT_MATH_FAILURE, r.output
    assert len(lascouxbasis._theorem12) < len(items)  # some records were memo hits
    *lines, last = r.stdout.splitlines()
    records = [json.loads(line) for line in lines]
    assert [rec["item"] for rec in records] == items
    assert {rec["verdict"] for rec in records} == {"violation"}
    body = json.loads(last)
    n = len(items)
    assert body["summary"] == {"checked": n, "passed": 0, "failed": n}
    assert body["counterexamples"] == items
    r = runner.invoke(main, argv)
    assert r.exit_code == EXIT_MATH_FAILURE, r.output
    assert r.stdout.splitlines() == [
        f"scan conj14 --n 3 --m 3: {n} checked, {n} failed",
        *(f"  counterexample: {json.dumps(item)}" for item in items)]


def test_scan_renders_each_theorem12_record_once_per_memo_key(runner, monkeypatch):
    calls = []
    rendered = lascouxbasis._rendered

    def counted(coeffs):
        calls.append(coeffs)
        return rendered(coeffs)

    monkeypatch.setattr(lascouxbasis, "_rendered", counted)
    r = runner.invoke(main, ["scan", "conj14", "--n", "4", "--m", "3", "--json"])
    assert r.exit_code == 0, r.output
    # 1888 diagrams share 797 theorem-12 memo keys, and each entry holds one render
    assert len(calls) == len(lascouxbasis._theorem12) == 797
    diagrams_ = conj14_diagrams(4, 3)
    lines = r.stdout.splitlines()[:-1]
    assert len(lines) == len(diagrams_) == 1888
    for line, D in zip(lines, diagrams_):
        want = reference_record({"diagram": diagrams.format_diagram(D)},
                                lascouxbasis.theorem12_check(D, require_inclusion=False))
        assert line == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["scan", "conj14", "--n", "3", "--m", "2"],
    ["scan", "thm12-vexillary", "--nmax", "4"],
    ["scan", "conj15", "--n", "2", "--max-entry", "2"],
    ["check", "thm12", "--diagram", "n=3;2,3;3;3"],
])
def test_no_lascouxbasis_memo_outlives_its_command(runner, argv):
    from orthodontia.cli import _lascouxbasis

    def memos():
        return {name: len(value) for name, value in vars(lascouxbasis).items()
                if isinstance(value, dict) and not name.startswith("__")}

    r = runner.invoke(main, argv)
    assert r.exit_code == 0, r.output
    assert any(memos().values())
    assert _lascouxbasis() is lascouxbasis
    assert {name: size for name, size in memos().items() if size} == {}


@pytest.mark.parametrize("cpus, workers", [(2, 3), (4, 64), (None, 2), (1, 2)])
def test_scan_workers_above_the_cpu_count_are_refused_before_any_pool(
        runner, monkeypatch, cpus, workers):
    # cpus is the process's CPU affinity, which caps the workers however many CPUs the machine
    # has (as under `taskset -c 0`); None is a platform without one, where os.cpu_count() is
    # read and an unknown count counts as one
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    r = runner.invoke(main, ["scan", "conj14", "--n", "2", "--m", "2",
                             "--workers", str(workers)])
    assert r.exit_code == 2, r.output
    assert f"--workers {workers} exceeds the CPU count ({cpus or 1})" in r.output
    assert "checked" not in r.output


def test_check_thm12(runner):
    r = runner.invoke(main, ["check", "thm12", "--diagram", "n=3;1;1,2;", "--json"])
    assert r.exit_code == 0
    rec = json.loads(r.output)
    assert rec["verdict"] == "positive"


@pytest.mark.parametrize("m", [0, 1, 2])
def test_check_thm12_answers_as_the_scan_record_it_reads(runner, m):
    r = runner.invoke(main, ["scan", "conj14", "--n", "2", "--m", str(m), "--json"])
    assert r.exit_code == 0
    records = [json.loads(line) for line in r.output.splitlines() if line.startswith('{"d0"')]
    assert records
    for rec in records:
        r2 = runner.invoke(main, ["check", "thm12", "--diagram", rec["item"]["diagram"],
                                  "--no-require-inclusion", "--json"])
        assert json.loads(r2.output) == rec


def test_check_thm12_inclusion_gate(runner):
    r = runner.invoke(main, ["check", "thm12", "--diagram", "n=2;1;2;"])
    assert r.exit_code == 2
    r = runner.invoke(
        main, ["check", "thm12", "--diagram", "n=2;1;2;", "--no-require-inclusion"]
    )
    assert r.exit_code == 0


def test_report_ambiguities(runner):
    r = runner.invoke(
        main, ["report", "ambiguities", "--nmax-omega", "3", "--nmax-endpoint", "3"]
    )
    assert r.exit_code == 0
    assert "Ambiguity resolution report" in r.output


@pytest.mark.parametrize("omega, endpoint, message", [
    ("-1", "-1", "the omega section checks nothing at nmax_omega=-1"),
    ("1", "4", "the omega section checks nothing at nmax_omega=1"),
    ("4", "2", "the endpoint section checks nothing at nmax_endpoint=2"),
])
def test_report_that_checks_nothing_is_a_usage_error(runner, omega, endpoint, message):
    r = runner.invoke(
        main, ["report", "ambiguities", "--nmax-omega", omega, "--nmax-endpoint", endpoint]
    )
    assert r.exit_code == 2, r.output
    assert message in r.output


def test_report_with_an_empty_endpoint_section_builds_no_polynomial(runner, monkeypatch):
    calls = _refuse_staircases(monkeypatch)
    r = runner.invoke(main, ["report", "ambiguities", "--nmax-omega", "6", "--nmax-endpoint", "2"])
    assert r.exit_code == 2
    assert "the endpoint section checks nothing at nmax_endpoint=2" in r.output
    assert calls == []


def test_report_at_the_smallest_bounds_that_check_something(runner):
    r = runner.invoke(main, ["report", "ambiguities", "--nmax-omega", "2", "--nmax-endpoint", "3"])
    assert r.exit_code == 0
    assert "for all w up to S_2" in r.output and "transformation up to S_3" in r.output


def _golden_cases():
    goldens = workloads.load_goldens()
    strata = {s["name"]: s["queries"] for s in goldens["cli-query"]["strata"]}
    return {
        "scan-conj14": [goldens["scan-conj14"]],
        "double-grothendieck-s5": strata["double-grothendieck-s5"],
        "script-G-s6-80k": strata["script-G-s6-80k"][:1],
    }


@pytest.mark.parametrize("queries", [
    pytest.param(queries, id=case) for case, queries in sorted(_golden_cases().items())
])
def test_stdout_matches_frozen_digests(runner, queries):
    mismatched = []
    for q in queries:
        r = runner.invoke(main, q["argv"])
        if r.exit_code != 0 or workloads.digest(r.stdout_bytes) != q["sha256"]:
            mismatched.append(" ".join(q["argv"]))
    assert mismatched == [], f"{len(mismatched)} of {len(queries)} differ"


# -- fuzzing: generated options only ever exit 0, 1 or 2 ---------------------

# Texts of at most 5 characters keep permutations within S_5: a cold S_6 G_w
# takes over a second and the family memos would keep every one of them.
TEXT = st.one_of(
    st.text("0123456789,;n=-", max_size=5),
    st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda w: "".join(map(str, w))),
    st.builds(lambda n, cols: f"n={n}" + "".join(";" + ",".join(map(str, c)) for c in cols),
              st.integers(0, 3), st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=3)),
)
FLAG = None
# command: (first argument choices, {option: value strategy, or FLAG})
COMMANDS = {
    "poly": (sorted(FAMILIES), {"--w": TEXT, "--alpha": TEXT, "--diagram": TEXT,
                                "--nvars": st.integers(-1, 3).map(str),
                                "--unbarred-inner-omega": FLAG, "--json": FLAG, "--latex": FLAG}),
    "pipedreams": ([], {"--w": TEXT, "--count": FLAG, "--emit-json": FLAG}),
    "orthodontia": ([], {"--diagram": TEXT, "--force": FLAG, "--json": FLAG}),
    "sortorder": ([], {"--w": TEXT, "--os-endpoint": st.sampled_from(["alpha", "alpha-plus-one"])}),
    "check": (["thm12"], {"--diagram": TEXT, "--no-require-inclusion": FLAG, "--json": FLAG}),
    "scan": (sorted(SCANS), {"--workers": st.sampled_from(["0", "1"]), "--json": FLAG}),
    "verify": (sorted(SUITES), {"--json": FLAG}),
    "report": (["ambiguities"], {}),
}
# sizes, given when read: scans at most 2, verify and report at most 3
SIZES = {"scan": ("--n", "--m", "--max-entry", "--nmax"),
         "verify": ("--nmax",), "report": ("--nmax-omega", "--nmax-endpoint")}
REQUIRED = {"pipedreams": "--w", "sortorder": "--w", "orthodontia": "--diagram", "check": "--diagram"}


def _reads(argv: list[str]) -> tuple[str, ...]:
    """The valued options that the command, or its poly family or scan target, reads."""
    table = {"poly": FAMILIES, "scan": SCANS}.get(argv[0])
    if table:
        return tuple("--" + name.replace("_", "-") for name in table[argv[1]][0])
    return (REQUIRED[argv[0]],) if argv[0] in REQUIRED else ()


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    firsts, options = COMMANDS[command]
    argv = [command] + ([draw(st.sampled_from(firsts))] if firsts else [])
    reads = _reads(argv)
    # an option that is read is usually given, a flag now and then, any other seldom
    for name, values in options.items():
        if draw(st.integers(0, 9)) < (8 if name in reads else 4 if values is FLAG else 2):
            argv += [name] if values is FLAG else [name, draw(values)]
    for name in SIZES.get(command, ()):
        if name in reads or not reads or draw(st.integers(0, 9)) == 0:
            argv += [name, str(draw(st.integers(-1, 2 if command == "scan" else 3)))]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_generated_options_exit_0_1_or_2(argv):
    r = CliRunner().invoke(main, argv)
    assert r.exit_code in (0, 1, 2), (argv, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), (argv, r.exception)
