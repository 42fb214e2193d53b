"""Freeze the output goldens of every workload into ``bench/goldens.json``.

Run from the repository root:  python3 bench/freeze.py

Every digest is taken from the CLI's own stdout.  Before a ``poly`` answer is
frozen it is checked against the pipe-dream weight sum, the route that shares
no recursion with either the divided-difference table (``double-grothendieck``)
or the orthodontia evaluator (``script-G``), so the benchmark never trusts
the route it times.
"""

from __future__ import annotations

import json
import re
import sys
import time
from itertools import permutations

import workloads

# Rothe diagrams of S_6 for ``poly script-G``.  The stratum holds answers of
# nearly equal size (and so nearly equal CLI latency and peak memory), so the
# seed changes which polynomial is asked for but not what a round costs.
# Bigger answers (144k-157k terms, about 3 s and 150 MB; 216543: 217k terms,
# about 6 s) are left out: their costs differ by a third from one another,
# and a round with one takes so long that a run holds too few rounds for a
# steady median.
SCRIPT_G_STRATA = {
    "script-G-s6-80k": [  # 76k-84k terms, about 1.5 s and 90 MB per query
        "316254", "163254", "365412", "561432", "526431",
        "625413", "564321", "265341", "614532",
    ],
}


def main() -> int:
    root = workloads.HERE.parent
    cli = workloads.import_cli(root)
    from orthodontia import diagrams, permcomb, pipedreams
    from orthodontia.polyring import Polynomial

    def run(argv):
        code, out = workloads.invoke(cli.main, argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        return out

    def counted(argv, pattern):
        out = run(argv)
        checked, failed = map(int, re.search(pattern, out.decode()).groups())
        if failed:
            raise SystemExit(f"{' '.join(argv)}: {failed} failed")
        return {"argv": argv, "sha256": workloads.digest(out), "ops": checked}

    def query(argv, w):
        t0 = time.perf_counter()
        out = run(argv)
        p = Polynomial.from_json_dict(json.loads(out))
        if p != pipedreams.weight_sum(w):
            raise SystemExit(f"{' '.join(argv)} disagrees with the pipe-dream weight sum")
        print(f"  {' '.join(argv[:2])} {permcomb.format_perm(w)}: {len(p.terms)} terms, "
              f"checked in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
        return {"argv": argv, "sha256": workloads.digest(out), "terms": len(p.terms)}

    goldens = {
        "triple-s5": counted(workloads.TRIPLE_ARGS, r"(\d+) checked, (\d+) failed"),
        "scan-conj14": counted(workloads.SCAN_ARGS, r'"checked": (\d+), "failed": (\d+)'),
    }
    strata = [{
        "name": "double-grothendieck-s5",
        "queries": [
            query(["poly", "double-grothendieck", "--w", permcomb.format_perm(w), "--json"], w)
            for w in permutations(range(1, 6))
        ],
    }]
    for name, perms in SCRIPT_G_STRATA.items():
        queries = []
        for text in perms:
            w = permcomb.parse_perm(text)
            D = diagrams.format_diagram(diagrams.rothe(w))
            queries.append(query(["poly", "script-G", "--diagram", D, "--json"], w))
        strata.append({"name": name, "queries": queries})
    goldens["cli-query"] = {"strata": strata}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
