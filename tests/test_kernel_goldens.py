"""Frozen digests of the polynomial families and of the conj15 scan records.

``kernel_goldens.json`` holds the sha256 of ``to_json()`` of every double and
single Grothendieck and Schubert polynomial with n <= 4, of ``lascoux`` and
``key_via_pi`` for every alpha in {0..3}^3, of every ``conj15_item`` record
of ``scan conj15 --n 3 --m 2``, every ``conj14_item`` record of ``scan conj14
--n 3 --m 3`` and every ``thm12_vexillary_item`` record for w in S_1..S_5
(the line the scan prints: the worker's head, its item encoded with sorted
keys, then its tail), and of the stdout of ``pipedreams --w <w> --emit-json`` and
``pipedreams --w <w> --count`` for every w in S_1..S_5, of ``check thm12``,
text and ``--json``, on a few diagrams, of ``report
ambiguities`` at five (--nmax-omega, --nmax-endpoint) pairs and of ``verify
<suite> --nmax 4`` for every suite, and of the stdout of ``scan
thm12-vexillary --nmax 6 --json`` with its version blanked, the deepest
y = -1 operator sequences any scan evaluates.  A change to the arithmetic
kernel, to the pipe-dream walk, to the evaluators or to the suites must
reproduce them all.

Re-freeze (only after a deliberate change of answers) with
``PYTHONPATH=src python tests/test_kernel_goldens.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from itertools import product
from pathlib import Path

from orthodontia import diagrams, families, lascouxbasis, permcomb
from orthodontia.cli import SUITES, main
from scanline import scan_line
from test_cli import workloads  # bench/workloads.py, which test_cli puts on sys.path

GOLDENS = Path(__file__).with_name("kernel_goldens.json")

PERM_FAMILIES = ("double_grothendieck", "double_schubert", "grothendieck", "schubert")
COMP_FAMILIES = ("lascoux", "key_via_pi")
REPORT_BOUNDS = ((2, 3), (3, 3), (4, 4), (4, 5), (5, 6))  # (--nmax-omega, --nmax-endpoint)
# check thm12 inputs: no rows, one empty column, columns out of inclusion order, empty columns
# between full ones, and the deepest alternating signs of the scans' walks
CHECK_THM12 = ("n=0", "n=2;", "n=3;1;1,2;", "n=3;2,3;3;3", "n=4;3;1,3;;1,2,3,4",
               "n=4;2,4;4;1,2,4;", "n=5;1,3;;2,3,5;3,5")
SCAN_THM12_S6 = ["scan", "thm12-vexillary", "--nmax", "6", "--json"]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(argv: list[str]) -> str:
    """What ``orthodontia <argv>`` prints to stdout; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main.main(args=argv, prog_name="orthodontia", standalone_mode=False)
    return out.getvalue()


def digests() -> dict[str, str]:
    out = {}
    for name in PERM_FAMILIES:
        for w in (w for n in range(1, 5) for w in permcomb.all_perms(n)):
            out[f"{name} {permcomb.format_perm(w)}"] = sha(getattr(families, name)(w).to_json())
    for name in COMP_FAMILIES:
        for alpha in product(range(4), repeat=3):
            out[f"{name} {','.join(map(str, alpha))}"] = sha(
                getattr(families, name)(alpha).to_json())
    for alpha, i in lascouxbasis.conj15_items(3, 2):
        out[f"conj15_item {','.join(map(str, alpha))} {i}"] = sha(
            scan_line(lascouxbasis.conj15_item((alpha, i))))
    for item in lascouxbasis.conj14_items(3, 3):
        out[f"conj14_item {diagrams.format_masks(*item)}"] = sha(
            scan_line(lascouxbasis.conj14_item(item)))
    for w in (w for n in range(1, 6) for w in lascouxbasis.thm12_vexillary_items(n)):
        out[f"thm12_vexillary_item {permcomb.format_perm(w)}"] = sha(
            scan_line(lascouxbasis.thm12_vexillary_item(w)))
    for w in (w for n in range(1, 6) for w in permcomb.all_perms(n)):
        for flag in ("--emit-json", "--count"):
            out[f"pipedreams {permcomb.format_perm(w)} {flag}"] = sha(
                stdout_of(["pipedreams", "--w", permcomb.format_perm(w), flag]))
    for text in CHECK_THM12:
        for flags in ([], ["--json"]):
            argv = ["check", "thm12", "--diagram", text, "--no-require-inclusion", *flags]
            out[" ".join(argv)] = sha(stdout_of(argv))
    for omega, endpoint in REPORT_BOUNDS:
        out[f"report ambiguities {omega} {endpoint}"] = sha(stdout_of(
            ["report", "ambiguities", "--nmax-omega", str(omega), "--nmax-endpoint", str(endpoint)]))
    for suite in sorted(SUITES):
        out[f"verify {suite} --nmax 4"] = sha(stdout_of(["verify", suite, "--nmax", "4"]))
    out[" ".join(SCAN_THM12_S6)] = workloads.digest(stdout_of(SCAN_THM12_S6).encode())
    return out


def test_kernel_goldens_reproduce():
    want = json.loads(GOLDENS.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(digests(), indent=1) + "\n")
