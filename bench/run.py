"""The orthodontia benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it builds nothing but the bytecode of
``src/`` and drives the CLI from ``src/`` as fresh child processes
(``python -m orthodontia.cli ...``), one at a time.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced in-process run (``tracer.py``).  Every output is checked against
the frozen digests in ``goldens.json``.  The last line of stdout is the
result as one JSON object; the same result, with its provenance, is written
to ``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from typing import NamedTuple

import workloads

ROOT = workloads.HERE.parent
OUT = workloads.HERE / "out"
STDOUT = OUT / "stdout.bin"
SETUP_LAUNCHES = 4
# The probe: about 5 ms on a 2-vCPU cloud host, taken every 50 ms of a child.
PROBE_EVERY = 0.05
PROBE_LOOPS = 15_000
PROBE_KEYS = 31 * 29 * 7
# Seconds per ``ref`` for ``setup_s``: a fixed probe time, near the probe's
# median on a 2-vCPU cloud host, so that set-up is reported in seconds at
# one fixed CPU speed.
PROBE_NOMINAL_S = 0.006
CACHE_ENV = "ORTHODONTIA_CACHE_DIR"
# The end-to-end metrics and their units, as BENCHMARK.json declares them.
# ``ref`` is the mean probe time measured during the same child; ``setup_s``
# is in ``ref`` too, converted to seconds by PROBE_NOMINAL_S.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "ops_per_ref": "1/ref",
              "op_latency_p50_ref": "ref", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """The environment of every child: the checkout's src/, no disk cache."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child(NamedTuple):
    label: str
    wall: float
    probe: float
    cpu: float
    rss_mb: float
    code: int
    ok: bool
    ops: int

    @property
    def rel(self) -> float:
        """Wall time in units of the mean probe time measured during it."""
        return self.wall / self.probe


def probe() -> float:
    """Seconds the harness takes for one pass of a fixed pure-Python loop.

    The loop does the kind of work the program's kernel does (tuple-keyed
    dict updates with integer products) and none of the program's code, so
    a change to ``src/`` never changes it.
    """
    t0 = time.perf_counter()
    acc: dict[tuple[int, int, int], int] = {}
    for i in range(PROBE_LOOPS):
        key = (i % 31, i % 29, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    wall = time.perf_counter() - t0
    if len(acc) != PROBE_KEYS:
        raise RuntimeError(f"probe loop made {len(acc)} keys, not {PROBE_KEYS}")
    return wall


def run_child(argv, env, stderr, expect=None, ops=0) -> Child:
    """Run ``orthodontia <argv>`` to completion; time it and read its own rusage.

    Every PROBE_EVERY seconds the child is stopped while the harness times
    one probe on the same CPU, and then continued.  The stopped time is not
    counted.  The probes sample the speed the CPU gave during the child's
    whole life, so ``Child.rel`` cancels the drift of a shared host's speed,
    which moves every process alike by up to half within seconds.  The
    child writes to a regular file, not a pipe: a stop signal can cut a
    blocked pipe write short, and the child's Python then loses the rest.
    """
    probes: list[float] = []
    stopped = 0.0
    with open(STDOUT, "w+b") as stdout:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "orthodontia.cli", *argv], cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL, stdout=stdout,
                                stderr=stderr)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    ready = select.select([pidfd], [], [], PROBE_EVERY)[0]
                    end = time.perf_counter()
                    if not ready:
                        os.kill(proc.pid, signal.SIGSTOP)
                    # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN
                    # would be a running maximum over every child reaped so far.
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):
                        break
                    probes.append(probe())
                    os.kill(proc.pid, signal.SIGCONT)
                    stopped += time.perf_counter() - end
            finally:
                os.close(pidfd)
            if not probes:  # a child shorter than PROBE_EVERY
                probes.append(probe())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        stdout.seek(0)
        out = stdout.read()
    wall = end - t0 - stopped
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    ok = code == 0 and (expect is None or workloads.digest(out) == expect)
    return Child(" ".join(argv), wall, statistics.fmean(probes),
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, ok, ops)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def provenance(args, nproc: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "click": version("click"),
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
    }


def percentile_line(samples: list[float], unit: str) -> str:
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"op latency: {n} samples, too few for a percentile with 10 beyond it"
    k = n - 10
    return (f"op latency: p{100 * k // n} = {sorted(samples)[k - 1]:.4f} {unit} "
            f"({n} samples, 10 beyond)")


def end_to_end(args, goldens, env, stderr) -> tuple[dict, dict]:
    """Run whole rounds until the next one would pass the deadline.

    Times are reported in units of the probe (``ref``), as ``Child.rel``
    gives them; the same times in seconds go to the result file.
    """
    setup = [run_child(["--help"], env, stderr) for _ in range(SETUP_LAUNCHES)]
    if not all(c.ok for c in setup):
        raise RuntimeError("the CLI does not start; see bench/out/stderr.txt")
    rounds, children = [], []
    start = time.perf_counter()
    for batch in workloads.rounds(args.workload, args.seed, goldens):
        t0 = time.perf_counter()
        done = []
        for inv in batch:
            c = run_child(inv.argv, env, stderr, inv.sha256, inv.ops)
            if not c.ok:
                print(f"FAILED: {inv.label()} (exit {c.code})", file=sys.stderr)
            done.append(c)
            # Set-up launches spread over the run, so that their median
            # reflects the whole run and not the host's speed at its start.
            setup.append(run_child(["--help"], env, stderr))
        rounds.append(done)
        children.extend(done)
        now = time.perf_counter()
        if now + (now - t0) - start > args.seconds:
            break
    attempted = sum(c.ops for c in children)
    failed = sum(c.ops for c in children if not c.ok)
    verified = attempted - failed
    rel = [c.rel for c in children]
    values = {
        "setup_s": statistics.median(c.rel for c in setup) * PROBE_NOMINAL_S,
        "wall_ref": statistics.median(sum(c.rel for c in r) for r in rounds),
        "ops_per_ref": verified / sum(rel),
        "op_latency_p50_ref": statistics.median(rel),
        "peak_rss_mb": max(c.rss_mb for c in children),
    }
    metrics = {k: (values[k], u) for k, u in END_TO_END.items()}
    latencies = [c.wall for c in children]
    info = {
        "seconds": {
            "probe_s": statistics.median(c.probe for c in children),
            "setup_s": statistics.median(c.wall for c in setup),
            "wall_s": statistics.median(sum(c.wall for c in r) for r in rounds),
            "ops_per_s": verified / sum(latencies),
            "op_latency_p50_s": statistics.median(latencies),
        },
        "processes": len(children),
        "runs": len(rounds),
        "percentile": percentile_line(rel, "ref"),
        "children": [[c.label[:60], c.wall, c.probe, c.cpu, c.rss_mb, c.code, c.ok]
                     for c in children],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, info


def traced(args, env, stderr) -> tuple[dict, dict]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "tracer.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--spans", str(spans)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"tracer exited {proc.returncode}; see bench/out/stderr.txt")
    res = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: (m["value"], m["unit"]) for k, m in res.pop("metrics").items()}
    res["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="orthodontia benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through the normal unwinding on SIGTERM, so that a running child
    # is killed and reaped rather than left behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "orthodontia" / "cli.py").is_file():
        print(f"no orthodontia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for the harness and, by inheritance, every child: a probe and
    # the child it samples then share whatever else loads that CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    env = child_env()
    # The build: byte-compile src/ so that no run pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   env=env, stdout=subprocess.DEVNULL, check=True)

    goldens = workloads.load_goldens()
    with open(OUT / "stderr.txt", "wb") as stderr:
        if args.trace:
            metrics, info = traced(args, env, stderr)
        else:
            metrics, info = end_to_end(args, goldens, env, stderr)
    caches = sorted(str(p.relative_to(ROOT)) for p in ROOT.rglob("tables.json"))
    if caches:
        print(f"FAILED: the program wrote a disk cache: {caches}", file=sys.stderr)
    correct = info.pop("correct") and not caches
    attempted, failed = info.pop("attempted"), info.pop("failed")
    info["failed_frac"] = failed / attempted

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"provenance": provenance(args, len(cpus)), **result, **info}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for k, (v, u) in metrics.items():
        print(f"{k:42s} {v:14.6g} {u}")
    if args.trace:
        for k, s in info["self_s"].items():
            print(f"{k + '.self_s':42s} {s:14.6g} s")
        print(f"bypass predictions: {info['predictions']}")
    else:
        print(info["percentile"])
        for k, v in info["seconds"].items():
            unit = "1/s" if k == "ops_per_s" else "s"
            print(f"{k + ' (not normalised)':42s} {v:14.6g} {unit}")
    print(f"{'failed_frac':42s} {info['failed_frac']:14.6g} 1")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
