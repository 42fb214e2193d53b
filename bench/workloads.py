"""Workload definitions shared by the runner, the tracer and the golden freezer.

A workload is a list of CLI invocations.  The program only ever sees the
generated arguments; the seed is consumed here.

- ``triple-s5`` and ``scan-conj14`` are single fixed commands.  Their inputs do
  not depend on the seed, so every seed measures the same work.
- ``cli-query`` is a closed loop with one client.  It runs in rounds, and each
  round draws one query from every stratum of ``goldens.json``.  Within a
  stratum the queries cost about the same, so a round costs about the same
  whatever the seed draws, while the answers themselves differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

TRIPLE_ARGS = ["verify", "thm11", "--nmax", "5"]
SCAN_ARGS = ["scan", "conj14", "--n", "4", "--m", "3", "--json", "--workers", "1"]

WORKLOADS = ("triple-s5", "scan-conj14", "cli-query")

_VERSION = re.compile(rb'"version": "[^"]*"')


def digest(stdout: bytes) -> str:
    """sha256 of a command's stdout, with the package version blanked.

    ``scan --json`` reports the installed package version in its summary
    line.  That is provenance, not an answer, so it does not enter the digest.
    """
    head, sep, last = stdout.rstrip(b"\n").rpartition(b"\n")
    return hashlib.sha256(head + sep + _VERSION.sub(b'"version": ""', last)).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


class Invocation(NamedTuple):
    """One CLI call, its frozen digest and how many operations it verifies."""

    argv: list[str]
    sha256: str
    ops: int

    def label(self) -> str:
        return " ".join(self.argv)


def rounds(workload: str, seed: int, goldens: dict):
    """Endless stream of rounds; each round is a list of Invocations.

    The runner checks its deadline only between rounds, so every run
    measures whole rounds.
    """
    if workload == "cli-query":
        rng = random.Random(seed)
        strata = goldens["cli-query"]["strata"]
        while True:
            batch = [rng.choice(stratum["queries"]) for stratum in strata]
            rng.shuffle(batch)
            yield [Invocation(q["argv"], q["sha256"], 1) for q in batch]
    g = goldens[workload]
    while True:
        yield [Invocation(g["argv"], g["sha256"], g["ops"])]


def invoke(main, argv: list[str]) -> tuple[int, bytes]:
    """Run the click entry point in this process; return (exit code, stdout).

    stderr (the ``wall time`` line of ``verify``/``scan``) is discarded.
    """
    import click

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(args=list(argv), prog_name="orthodontia", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a crash fails this invocation, not the whole run
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, out.getvalue().encode()


def import_cli(root: Path):
    """Import ``orthodontia.cli`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import orthodontia.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"orthodontia was imported from {cli.__file__}, not from {src}")
    return cli
