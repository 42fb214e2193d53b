"""Command-line interface: computation, verification, and conjecture scans.

Start-up is paid by every run, so this module imports only what every
command needs, and each command imports the engine modules it runs:
``--help`` loads no engine module but ``permcomb``, ``poly`` loads
``families`` and what it uses, and ``scan``/``check`` load
``lascouxbasis`` but neither ``suites`` nor ``pipedreams``.  The engine
builds no reference cycles, so ``main`` turns the cyclic garbage collector
off for the command and back on when the command's context closes.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
import time
from typing import Iterable

import click
from click.core import ParameterSource

from . import __version__, permcomb

EXIT_MATH_FAILURE = 1
EXIT_CRASH = 3


class _Parsed(click.ParamType):
    """An option value read by one of the text parsers; a ValueError is a usage error."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        if not isinstance(value, str):
            return value
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


PERM = _Parsed("permutation", permcomb.parse_perm)
COMP = _Parsed("composition", permcomb.parse_comp)


def _parse_diagram(text: str):
    from .diagrams import parse_diagram

    return parse_diagram(text)


DIAGRAM = _Parsed("diagram", _parse_diagram)


class _Command(click.Command):
    """A subcommand: a ValueError the engine raises is a usage error of this command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)


class _Main(click.Group):
    """The command group: an unexpected exception exits EXIT_CRASH with a one-line message."""

    command_class = _Command

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo(f"error: {type(exc).__name__}: {' '.join(str(exc).splitlines())}", err=True)
            sys.exit(EXIT_CRASH)


@click.group(cls=_Main)
@click.pass_context
def main(ctx):
    """Exact Schubert/Grothendieck/Lascoux polynomial computations."""
    # no collection finds garbage in a cycle-free engine; an in-process caller gets it back
    if gc.isenabled():
        gc.disable()
        ctx.call_on_close(gc.enable)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read(what: str, reads: tuple[str, ...], options: dict) -> list:
    """Values of the ``reads`` options, the first required; an unread one given is a usage error."""
    ctx = click.get_current_context()
    if options[reads[0]] is None:
        raise click.UsageError(f"{what} requires {_flag(reads[0])}")
    for name in options:
        if name not in reads and ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            raise click.UsageError(f"{what} does not read {_flag(name)}")
    return [options[name] for name in reads]


# family: (options read, index first; its polynomial, given the families module)
FAMILIES = {
    "double-grothendieck": (("w",), lambda fam, w: fam.double_grothendieck(w)),
    "double-schubert": (("w",), lambda fam, w: fam.double_schubert(w)),
    "grothendieck": (("w",), lambda fam, w: fam.grothendieck(w)),
    "schubert": (("w",), lambda fam, w: fam.schubert(w)),
    "lascoux": (("alpha",), lambda fam, alpha: fam.lascoux(alpha)),
    "key": (("alpha",), lambda fam, alpha: fam.key(alpha)),
    "stable-grothendieck": (("w", "nvars"), lambda fam, w, n: fam.stable_grothendieck(w, n)),
    "script-G": (("diagram", "unbarred_inner_omega"),
                 lambda fam, D, unbarred: fam.script_G(D, barred_inner_omega=not unbarred)),
    "script-S": (("diagram",), lambda fam, D: fam.script_S(D)),
}


@main.command("poly")
@click.argument("family", type=click.Choice(list(FAMILIES)))
@click.option("--w", type=PERM, default=None, help="permutation in one-line notation")
@click.option("--alpha", type=COMP, default=None, help="composition, comma-separated")
@click.option("--diagram", type=DIAGRAM, default=None, help="diagram text, e.g. 'n=2;1;'")
@click.option("--nvars", default=3, show_default=True, help="variables for stable-grothendieck")
@click.option("--unbarred-inner-omega", is_flag=True, help="script-G variant with unbarred inner omegas")
@click.option("--json", "as_json", is_flag=True)
@click.option("--latex", is_flag=True)
def cmd_poly(family, as_json, latex, **options):
    """Print one polynomial of the named family in canonical term order."""
    if as_json and latex:
        raise click.UsageError("--json and --latex cannot be used together")
    from . import families

    reads, compute = FAMILIES[family]
    values = _read(family, reads, options)
    p = compute(families, *values)
    if as_json:
        # through the stream's buffer, one batch of terms at a time; click.echo may write
        # through a wrapper of its own, so the buffer is flushed before the newline
        sys.stdout.writelines(p.json_chunks())
        sys.stdout.flush()
        click.echo()
    else:
        click.echo(p.to_str(latex=latex))


@main.command("pipedreams")
@click.option("--w", "perm", type=PERM, required=True)
@click.option("--count", "count_only", is_flag=True, help="print only #PD(w)")
@click.option("--emit-json", is_flag=True, help="cross sets as [[i,j],...] JSON lines")
def cmd_pipedreams(perm, count_only, emit_json):
    """Enumerate pipe dreams with Demazure product w."""
    if count_only and emit_json:
        raise click.UsageError("--count and --emit-json cannot be used together")
    from . import pipedreams

    pds = pipedreams.enumerate_pd(perm)
    if count_only:
        click.echo(str(len(pds)))
        return
    for crosses in pds:
        if emit_json:
            click.echo(json.dumps([list(c) for c in crosses]))
        else:
            click.echo(" ".join(f"({i},{j})" for i, j in crosses) or "(empty)")
    click.echo(f"total: {len(pds)}", err=True)


@main.command("orthodontia")
@click.option("--diagram", "D", type=DIAGRAM, required=True)
@click.option("--force", is_flag=True, help="run on non-%-avoiding diagrams")
@click.option("--json", "as_json", is_flag=True)
def cmd_orthodontia(D, force, as_json):
    """Print the double orthodontic sequence (K, i, j, M) of a diagram."""
    from . import diagrams

    seq = diagrams.orthodontic_sequence(D, force=force)
    i, j, M = ([step[k] for step in seq.steps] for k in range(3))
    K, M = list(map(diagrams.bits, seq.K)), list(map(diagrams.bits, M))
    if as_json:
        click.echo(json.dumps({"K": K, "i": i, "j": j, "M": M}))
        return
    click.echo("K = " + ", ".join(f"K_{a}={k or '{}'}" for a, k in enumerate(K, 1)))
    click.echo(f"i = {i}")
    click.echo(f"j = {j}")
    click.echo("M = " + ", ".join(f"M_{k}={m or '{}'}" for k, m in enumerate(M, 1)))


@main.command("sortorder")
@click.option("--w", "perm", type=PERM, required=True)
@click.option("--os-endpoint", type=click.Choice(["alpha", "alpha-plus-one"]),
              default="alpha-plus-one", show_default=True)
def cmd_sortorder(perm, os_endpoint):
    """Primary column data, sigma(w), w_sort, and sort-order predecessors."""
    from . import diagrams, sortorder

    pcd = sortorder.primary_column_data(perm)
    click.echo(
        f"primary column data: h={pcd.h}, C={diagrams.bits(pcd.C) or '{}'}, "
        f"alpha={pcd.alpha}, i1={pcd.i1}, beta={pcd.beta}"
    )
    click.echo(f"sigma(w) = {permcomb.format_perm(pcd.sigma)}")
    click.echo(f"w_sort = {permcomb.format_perm(pcd.sort)}")
    pred = sortorder.os_covers(perm, pcd, endpoint=os_endpoint)
    click.echo("predecessors: " + ("(none)" if pred is None else permcomb.format_perm(pred)))


def _report(command: str, records: Iterable[tuple], as_json: bool, t0: float,
            checked: int | None = None):
    """Print the records as they arrive, then the summary; exit EXIT_MATH_FAILURE on a violation.

    A record is (item, verdict, head, tail), its JSON line head + the encoded item
    + tail: only ``--json`` encodes items, and a memo key's items share head and tail.
    ``checked`` defaults to the number of records.  A run that fails part way
    leaves whole record lines and no summary.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    write = sys.stdout.write
    failed = []
    count = 0
    for count, (item, verdict, head, tail) in enumerate(records, 1):
        if verdict != "positive":
            failed.append(item)
        if as_json:
            # through the stream's buffer: click.echo flushes after every line
            write(head + encode(item) + tail + "\n")
    if checked is None:
        checked = count
    if as_json:
        sys.stdout.flush()  # click.echo may write through a wrapper of its own
        summary = {"checked": checked, "passed": checked - len(failed), "failed": len(failed)}
        click.echo(encode({"command": command, "version": __version__, "summary": summary,
                           "counterexamples": failed}))
    else:
        click.echo(f"{command}: {checked} checked, {len(failed)} failed")
        for item in failed:
            click.echo(f"  counterexample: {encode(item)}")
    click.echo(f"wall time: {time.monotonic() - t0:.2f}s", err=True)
    if failed:
        sys.exit(EXIT_MATH_FAILURE)


# suite: the name of its suites function, spelled out so that --help need not import the
# suites; in sorted order, as --help lists them
SUITES = {name: "suite_" + name.replace("-", "_") for name in (
    "cor-double-schub", "lemma4", "operators", "prop-os1", "thm-os2", "thm11", "triangularity")}


@main.command("verify")
@click.argument("suite", type=click.Choice(list(SUITES)))
@click.option("--nmax", default=4, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(suite, nmax, as_json):
    """Run one invariant suite for all indices up to --nmax."""
    from . import suites

    t0 = time.monotonic()
    res = getattr(suites, SUITES[suite])(nmax)
    if res.checked == 0:
        raise click.UsageError(f"{suite} checks nothing at this nmax, got {nmax}")
    records = (({"suite": suite, "failure": f}, "violation", '{"item": ', ', "verdict": "violation"}')
               for f in res.failures)
    _report(f"verify {suite} --nmax {nmax}", records, as_json, t0, res.checked)


def _lascouxbasis():
    """The lascouxbasis module, its memos emptied: a command expands as a fresh process would."""
    from . import lascouxbasis

    for memo in lascouxbasis._theorem12, lascouxbasis._phi:
        memo.clear()
    return lascouxbasis


# target: (options read; lascouxbasis names of its item builder and picklable worker)
SCANS = {
    "conj15": (("n", "max_entry"), "conj15_items", "conj15_item"),
    "conj14": (("n", "m"), "conj14_items", "conj14_item"),
    "thm12-vexillary": (("nmax",), "thm12_vexillary_items", "thm12_vexillary_item"),
}
SIZE = click.IntRange(min=0)


@main.command("scan")
@click.argument("target", type=click.Choice(list(SCANS)))
@click.option("--n", type=SIZE, default=3, show_default=True)
@click.option("--m", type=SIZE, default=3, show_default=True)
@click.option("--max-entry", type=SIZE, default=2, show_default=True)
@click.option("--nmax", type=SIZE, default=4, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_scan(target, workers, as_json, **options):
    """Scan a conjecture/theorem family and report counterexamples."""
    t0 = time.monotonic()
    # the CPUs this process may run on, where the platform reports them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers > cpus:
        raise click.UsageError(f"--workers {workers} exceeds the CPU count ({cpus})")
    reads, builder, worker = SCANS[target]
    values = _read(target, reads, options)
    cmd = " ".join(["scan", target, *(f"{_flag(k)} {v}" for k, v in zip(reads, values))])
    lascouxbasis = _lascouxbasis()
    items, worker = getattr(lascouxbasis, builder)(*values), getattr(lascouxbasis, worker)
    if not items:
        raise click.UsageError(f"{cmd} checks nothing")
    if workers == 1:
        _report(cmd, map(worker, items), as_json, t0)
        return
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        # the chunk size pool.map would pick; the pool stops when the block ends
        chunksize = -(-len(items) // (4 * workers))
        _report(cmd, pool.imap(worker, items, chunksize), as_json, t0)


@main.command("check")
@click.argument("what", type=click.Choice(["thm12"]))
@click.option("--diagram", "D", type=DIAGRAM, required=True)
@click.option("--no-require-inclusion", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_check(what, D, no_require_inclusion, as_json):
    """Run the graded-positivity pipeline on one diagram."""
    from . import diagrams

    lascouxbasis = _lascouxbasis()
    e = lascouxbasis.theorem12_check(D, require_inclusion=not no_require_inclusion)
    verdict, head, tail = lascouxbasis._rendered(e)
    line = head + json.dumps({"diagram": diagrams.format_diagram(D)}) + tail
    if as_json:
        click.echo(line)
    else:
        record = json.loads(line)
        click.echo(f"verdict: {record['verdict']} (d0={record['d0']})")
        for t in record["expansion"]:
            click.echo(f"  L_{','.join(map(str, t['alpha']))}: {t['c']}")
    if verdict != "positive":
        sys.exit(EXIT_MATH_FAILURE)


@main.command("report")
@click.argument("what", type=click.Choice(["ambiguities"]))
@click.option("--nmax-omega", default=4, show_default=True)
@click.option("--nmax-endpoint", default=4, show_default=True)
def cmd_report(what, nmax_omega, nmax_endpoint):
    """Emit the one-page report resolving the notation ambiguities."""
    from . import suites

    click.echo(suites.ambiguity_report(nmax_omega, nmax_endpoint), nl=False)


def run():
    """The console script: ``main``, its objects frozen at exit so that no collection visits them."""
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    run()
