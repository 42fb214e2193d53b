"""Command-line interface: computation, verification, and conjecture scans."""

from __future__ import annotations

import json
import sys
import time
from importlib.metadata import version as pkg_version

import click

from . import diagrams, families, lascouxbasis, permcomb, pipedreams, sortorder, suites
from .polyring import Polynomial

EXIT_MATH_FAILURE = 1

FAMILY_NAMES = [
    "double-grothendieck",
    "double-schubert",
    "grothendieck",
    "schubert",
    "lascoux",
    "key",
    "stable-grothendieck",
    "script-G",
    "script-S",
]


def _version() -> str:
    try:
        return pkg_version("orthodontia")
    except Exception:
        return "unknown"


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
DIAGRAM = _Parsed("diagram", diagrams.parse_diagram)


@click.group()
def main():
    """Exact Schubert/Grothendieck/Lascoux polynomial computations."""


def _parse_index(family, w, alpha, diagram):
    if family in ("lascoux", "key"):
        index, option = alpha, "--alpha"
    elif family in ("script-G", "script-S"):
        index, option = diagram, "--diagram"
    else:
        index, option = w, "--w"
    if index is None:
        raise click.UsageError(f"{family} requires {option}")
    return index


@main.command("poly")
@click.argument("family", type=click.Choice(FAMILY_NAMES))
@click.option("--w", type=PERM, default=None, help="permutation in one-line notation")
@click.option("--alpha", type=COMP, default=None, help="composition, comma-separated")
@click.option("--diagram", type=DIAGRAM, default=None, help="diagram text, e.g. 'n=2;1;'")
@click.option("--nvars", default=3, show_default=True, help="variables for stable-grothendieck")
@click.option("--unbarred-inner-omega", is_flag=True, help="script-G variant with unbarred inner omegas")
@click.option("--json", "as_json", is_flag=True)
@click.option("--latex", is_flag=True)
def cmd_poly(family, w, alpha, diagram, nvars, unbarred_inner_omega, as_json, latex):
    """Print one polynomial of the named family in canonical term order."""
    index = _parse_index(family, w, alpha, diagram)
    try:
        if family == "double-grothendieck":
            p = families.double_grothendieck(index)
        elif family == "double-schubert":
            p = families.double_schubert(index)
        elif family == "grothendieck":
            p = families.grothendieck(index)
        elif family == "schubert":
            p = families.schubert(index)
        elif family == "lascoux":
            p = families.lascoux(index)
        elif family == "key":
            p = families.key(index)
        elif family == "stable-grothendieck":
            p = families.stable_grothendieck(index, nvars)
        elif family == "script-G":
            p = families.script_G(index, barred_inner_omega=not unbarred_inner_omega)
        else:
            p = families.script_S(index)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        click.echo(json.dumps(p.to_json_dict()))
    else:
        click.echo(p.to_str(latex=latex))


@main.command("pipedreams")
@click.option("--w", "perm", type=PERM, required=True)
@click.option("--count", "count_only", is_flag=True, help="print only #PD(w)")
@click.option("--emit-json", is_flag=True, help="cross sets as [[i,j],...] JSON lines")
def cmd_pipedreams(perm, count_only, emit_json):
    """Enumerate pipe dreams with Demazure product w."""
    try:
        pds = pipedreams.enumerate_pd(perm)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if count_only:
        click.echo(str(len(pds)))
        return
    for P in pds:
        crosses = [list(c) for c in P.sorted_crosses()]
        if emit_json:
            click.echo(json.dumps(crosses))
        else:
            click.echo(" ".join(f"({i},{j})" for i, j in P.sorted_crosses()) or "(empty)")
    click.echo(f"total: {len(pds)}", err=True)


@main.command("orthodontia")
@click.option("--diagram", "D", type=DIAGRAM, required=True)
@click.option("--force", is_flag=True, help="run on non-%-avoiding diagrams")
@click.option("--json", "as_json", is_flag=True)
def cmd_orthodontia(D, force, as_json):
    """Print the double orthodontic sequence (K, i, j, M) of a diagram."""
    try:
        seq = diagrams.orthodontic_sequence(D, force=force)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        click.echo(json.dumps({
            "K": [sorted(k) for k in seq.K],
            "i": list(seq.i),
            "j": list(seq.j),
            "M": [sorted(m) for m in seq.M],
        }))
        return
    click.echo("K = " + ", ".join(f"K_{a}={sorted(k) or '{}'}" for a, k in enumerate(seq.K, 1)))
    click.echo(f"i = {list(seq.i)}")
    click.echo(f"j = {list(seq.j)}")
    click.echo("M = " + ", ".join(f"M_{k}={sorted(m) or '{}'}" for k, m in enumerate(seq.M, 1)))


@main.command("sortorder")
@click.option("--w", "perm", type=PERM, required=True)
@click.option("--os-endpoint", type=click.Choice(["alpha", "alpha-plus-one"]),
              default="alpha-plus-one", show_default=True)
def cmd_sortorder(perm, os_endpoint):
    """Primary column data, sigma(w), w_sort, and sort-order predecessors."""
    pcd = sortorder.primary_column_data(perm)
    click.echo(
        f"primary column data: h={pcd.h}, C={sorted(pcd.C) or '{}'}, "
        f"alpha={pcd.alpha}, i1={pcd.i1}, beta={pcd.beta}"
    )
    click.echo(f"sigma(w) = {permcomb.format_perm(sortorder.sigma_of(perm))}")
    click.echo(f"w_sort = {permcomb.format_perm(sortorder.sort_of(perm))}")
    preds = sortorder.os_covers(perm, endpoint=os_endpoint)
    click.echo("predecessors: " + (", ".join(permcomb.format_perm(p) for p in preds) or "(none)"))


def _report(command: str, records: list[dict]) -> dict:
    failed = [r for r in records if r["verdict"] != "positive"]
    return {
        "command": command,
        "version": _version(),
        "records": records,
        "summary": {
            "checked": len(records),
            "passed": len(records) - len(failed),
            "failed": len(failed),
        },
        "counterexamples": [r["item"] for r in failed],
    }


def _emit_report(report: dict, as_json: bool, wall: float):
    if as_json:
        for r in report["records"]:
            click.echo(json.dumps(r, sort_keys=True))
        body = {k: v for k, v in report.items() if k != "records"}
        click.echo(json.dumps(body, sort_keys=True))
    else:
        s = report["summary"]
        click.echo(f"{report['command']}: {s['checked']} checked, {s['failed']} failed")
        for item in report["counterexamples"]:
            click.echo(f"  counterexample: {json.dumps(item, sort_keys=True)}")
    click.echo(f"wall time: {wall:.2f}s", err=True)


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(suites.SUITES)))
@click.option("--nmax", default=4, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(suite, nmax, as_json):
    """Run one invariant suite for all indices up to --nmax."""
    t0 = time.monotonic()
    try:
        res = suites.run_suite(suite, nmax)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if res.checked == 0:
        raise click.UsageError(f"{suite} checks nothing at this nmax, got {nmax}")
    wall = time.monotonic() - t0
    records = [{"item": {"suite": suite, "failure": f}, "verdict": "violation"}
               for f in res.failures]
    report = _report(f"verify {suite} --nmax {nmax}", records)
    report["summary"]["checked"] = res.checked
    report["summary"]["passed"] = res.checked - len(res.failures)
    _emit_report(report, as_json, wall)
    if res.failures:
        sys.exit(EXIT_MATH_FAILURE)


def _run_items(worker, items, workers: int):
    if workers <= 1:
        return [worker(it) for it in items]
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return pool.map(worker, items)


@main.command("scan")
@click.argument("target", type=click.Choice(["conj14", "conj15", "thm12-vexillary"]))
@click.option("--n", "nvar", default=3, show_default=True)
@click.option("--m", "mvar", default=3, show_default=True)
@click.option("--max-entry", default=2, show_default=True)
@click.option("--nmax", default=4, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_scan(target, nvar, mvar, max_entry, nmax, workers, as_json):
    """Scan a conjecture/theorem family and report counterexamples."""
    t0 = time.monotonic()
    if target == "conj15":
        items = lascouxbasis.conj15_items(nvar, max_entry)
        records = _run_items(lascouxbasis.conj15_item, items, workers)
        cmd = f"scan conj15 --n {nvar} --max-entry {max_entry}"
    elif target == "conj14":
        items = lascouxbasis.conj14_items(nvar, mvar)
        records = _run_items(lascouxbasis.conj14_item, items, workers)
        cmd = f"scan conj14 --n {nvar} --m {mvar}"
    else:
        items = lascouxbasis.thm12_vexillary_items(nmax)
        records = _run_items(lascouxbasis.thm12_vexillary_item, items, workers)
        cmd = f"scan thm12-vexillary --nmax {nmax}"
    report = _report(cmd, records)
    _emit_report(report, as_json, time.monotonic() - t0)
    if report["summary"]["failed"]:
        sys.exit(EXIT_MATH_FAILURE)


@main.command("check")
@click.argument("what", type=click.Choice(["thm12"]))
@click.option("--diagram", "D", type=DIAGRAM, required=True)
@click.option("--no-require-inclusion", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_check(what, D, no_require_inclusion, as_json):
    """Run the graded-positivity pipeline on one diagram."""
    try:
        res = lascouxbasis.theorem12_check(D, require_inclusion=not no_require_inclusion)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    record = lascouxbasis.scan_record({"diagram": diagrams.format_diagram(D)}, res.expansion)
    if as_json:
        click.echo(json.dumps(record, sort_keys=True))
    else:
        click.echo(f"verdict: {record['verdict']} (d0={record['d0']})")
        for t in record["expansion"]:
            click.echo(f"  L_{','.join(map(str, t['alpha']))}: {t['c']}")
    if not res.verdict.positive:
        sys.exit(EXIT_MATH_FAILURE)


@main.command("report")
@click.argument("what", type=click.Choice(["ambiguities"]))
@click.option("--nmax-omega", default=4, show_default=True)
@click.option("--nmax-endpoint", default=4, show_default=True)
def cmd_report(what, nmax_omega, nmax_endpoint):
    """Emit the one-page report resolving the notation ambiguities."""
    click.echo(suites.ambiguity_report(nmax_omega, nmax_endpoint), nl=False)


if __name__ == "__main__":
    main()
