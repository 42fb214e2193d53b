"""Traced, in-process run of one workload: spans, self times and work counts.

    python3 bench/tracer.py --workload W --seed S --seconds T --spans FILE

The program is traced from outside: every public function of each layer
module (and every public method of the classes they define) is replaced by
a wrapper that records a span (id, name, start, end, parent id) in memory.
Wherever a module re-binds a wrapped function under its own name at import
(``families.orthodontic_sequence``, ``lascouxbasis.phi``, ``suites.rothe``,
the ``orthodontia.*`` re-exports), that name is patched too, so a call is
traced whichever name it goes through.  Spans are written to FILE (gzipped
JSON lines) when the run ends.

The run alternates untraced and traced passes over the same inputs, with
the memo tables cleared before every CLI invocation, as in a fresh process.
The difference between the two is the tracing overhead.  The last line of
stdout is a JSON object with the per-layer metrics and the correctness counts.
"""

from __future__ import annotations

import argparse
import gzip
import inspect
import itertools
import json
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import workloads

LAYERS = ("polyring", "diffops", "families", "pipedreams", "diagrams",
          "lascouxbasis", "suites", "cli")

# Span names for functions whose own name is private or ambiguous.
SPAN_NAMES = {
    ("families", "_build_table"): "families.table_build",
    ("families", "_staircase_double"): "families.staircase",
    ("pipedreams", "_enumerate_all"): "pipedreams.enumerate",
    ("polyring", "Polynomial.__mul__"): "polyring.mul",
    ("polyring", "Polynomial.__add__"): "polyring.add",
    ("polyring", "Polynomial.__sub__"): "polyring.sub",
    ("polyring", "Polynomial.__neg__"): "polyring.neg",
    # to_json_dict exists only to serialise CLI output, so it is emit time.
    ("polyring", "Polynomial.to_json_dict"): "cli.emit",
}

# Layers each workload must reach (at least one span), and layers it must
# bypass (zero spans).
PREDICTIONS = {
    "triple-s5": {
        "exercised": ("polyring", "diffops", "families", "pipedreams", "diagrams", "suites", "cli"),
        "bypassed": ("lascouxbasis",),
    },
    "scan-conj14": {
        "exercised": ("polyring", "diffops", "families", "diagrams", "lascouxbasis", "cli"),
        "bypassed": ("pipedreams",),
    },
    "cli-query": {
        "exercised": ("polyring", "diffops", "families", "diagrams", "cli"),
        "bypassed": ("pipedreams", "lascouxbasis"),
    },
}


class Tracer:
    """Span recorder.  Wrappers are installed only for traced passes."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._stack: list[list] = []  # frames: [span id, name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, ids = self.spans, self._stack, self._ids
        self_s, calls = self.self_s, self.calls
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if before is not None:
                before(args, kwargs, parent)
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                spans.append((frame[0], name, t0, t1, parent[0] if parent else -1))
                self_s[name] += t1 - t0 - frame[2]
                calls[name] += 1
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _targets(modules):
    """(owner, attribute, span name, function) for every traced callable."""
    for layer in LAYERS[:-1]:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                name = SPAN_NAMES.get((layer, attr))
                if name or not attr.startswith("_"):
                    yield mod, attr, name or f"{layer}.{attr}", obj
            elif inspect.isclass(obj):
                for mattr, fn in vars(obj).items():
                    if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                        continue
                    key = (layer, f"{attr}.{mattr}")
                    if key in SPAN_NAMES or not mattr.startswith("_"):
                        default = f"{layer}.{mattr}" if attr == "Polynomial" else f"{layer}.{attr}.{mattr}"
                        yield obj, mattr, SPAN_NAMES.get(key, default), fn


def install(tracer: Tracer, modules, package) -> None:
    """Patch every traced callable under every module attribute bound to it."""
    families, cli = modules["families"], modules["cli"]
    counts = tracer.counts

    def mul_after(args, result, parent):
        counts["polyring.mul.pairs"] += len(args[0].terms) * len(args[1].terms)
        counts["polyring.mul.terms_out"] += len(result.terms)
        if parent is not None and parent[1] == "diffops.isobaric":
            counts["diffops.isobaric.intermediate_terms"] += len(result.terms)

    def dd_after(args, result, parent):
        counts["diffops.divided_difference.terms_in"] += len(args[0].terms)
        counts["diffops.divided_difference.terms_out"] += len(result.terms)

    def lascoux_before(args, kwargs, parent):
        if tuple(args[0]) in families._lascoux:
            counts["families.lascoux.memo_hits"] += 1
        if parent is not None and parent[1] == "lascouxbasis.lascoux_expand":
            counts["lascouxbasis.peel_steps"] += 1

    def enumerate_pd_after(args, result, parent):
        counts["pipedreams.dreams"] += len(result)

    def echo_before(args, kwargs, parent):
        if not kwargs.get("err", False):
            message = args[0] if args else kwargs.get("message")
            counts["cli.emit.bytes"] += len(str(message).encode()) + kwargs.get("nl", True)

    hooks = {
        "polyring.mul": (None, mul_after),
        "diffops.divided_difference": (None, dd_after),
        "families.lascoux": (lascoux_before, None),
        "pipedreams.enumerate_pd": (None, enumerate_pd_after),
    }
    wrapped = {}
    for owner, attr, name, fn in _targets(modules):
        wrapper = tracer.wrap(name, fn, *hooks.get(name, (None, None)))
        wrapped[id(fn)] = (fn, wrapper)
        if inspect.isclass(owner):
            tracer.patch(owner, attr, wrapper)
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.patch(mod, attr, hit[1])
    # The CLI's own serialisation and output go through its module
    # references to json and click; give it traced copies of both.
    json_ns = types.SimpleNamespace(**vars(cli.json))
    json_ns.dumps = tracer.wrap("cli.emit", cli.json.dumps)
    tracer.patch(cli, "json", json_ns)
    click_ns = types.SimpleNamespace(**vars(cli.click))
    click_ns.echo = tracer.wrap("cli.emit", cli.click.echo, before=echo_before)
    tracer.patch(cli, "click", click_ns)


def memo_tables(mod):
    """The module-level memo tables of a module: its private dicts."""
    return [obj for attr, obj in vars(mod).items()
            if attr.startswith("_") and not attr.startswith("__") and isinstance(obj, dict)]


def terms_retained(families, Polynomial) -> int:
    total = 0
    for table in memo_tables(families):
        for v in table.values():
            if isinstance(v, Polynomial):
                total += len(v.terms)
            else:  # a table of tables, keyed by n
                total += sum(len(p.terms) for p in v.values())
    return total


# name -> (unit, better); the per-layer metrics of BENCHMARK.json, in order.
# Self time is reported as a share (%) of the traced wall time, so that a
# layer a workload bypasses reads 0 rather than a constant zero time.
METRICS = {
    "polyring.mul.calls": ("count", "lower"),
    "polyring.mul.self_pct": ("%", "lower"),
    "polyring.mul.pairs": ("count", "lower"),
    "polyring.mul.terms_out": ("count", "lower"),
    "polyring.mul.merge_ratio": ("ratio", "higher"),
    "polyring.add.calls": ("count", "lower"),
    "polyring.add.self_pct": ("%", "lower"),
    "polyring.lowest_degree_part.calls": ("count", "lower"),
    "polyring.lowest_degree_part.self_pct": ("%", "lower"),
    "diffops.divided_difference.calls": ("count", "lower"),
    "diffops.divided_difference.self_pct": ("%", "lower"),
    "diffops.divided_difference.terms_in": ("count", "lower"),
    "diffops.divided_difference.terms_out": ("count", "lower"),
    "diffops.isobaric.self_pct": ("%", "lower"),
    "diffops.isobaric.intermediate_terms": ("count", "lower"),
    "diffops.pibar_double.self_pct": ("%", "lower"),
    "diffops.omega.self_pct": ("%", "lower"),
    "families.table_build.self_pct": ("%", "lower"),
    "families.staircase.self_pct": ("%", "lower"),
    "families.script_G.self_pct": ("%", "lower"),
    "families.script_S_neg1.self_pct": ("%", "lower"),
    "families.lascoux.calls": ("count", "lower"),
    "families.lascoux.memo_hit_ratio": ("ratio", "higher"),
    "families.table.terms_retained": ("count", "lower"),
    "pipedreams.enumerate.self_pct": ("%", "lower"),
    "pipedreams.dreams": ("count", "lower"),
    "pipedreams.weight_sum.self_pct": ("%", "lower"),
    "diagrams.orthodontic_sequence.calls": ("count", "lower"),
    "diagrams.orthodontic_sequence.self_pct": ("%", "lower"),
    "lascouxbasis.lascoux_expand.calls": ("count", "lower"),
    "lascouxbasis.lascoux_expand.self_pct": ("%", "lower"),
    "lascouxbasis.peel_steps": ("count", "lower"),
    "suites.checks": ("count", "higher"),
    "suites.self_pct": ("%", "lower"),
    "cli.emit.self_pct": ("%", "lower"),
    "cli.emit.bytes": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"{layer}.spans": ("count", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_values(tracer: Tracer, passes: int, traced_wall: float, extra: dict) -> dict:
    """Per-pass values of every metric in METRICS."""
    calls, counts = tracer.calls, tracer.counts
    layer_self, layer_spans = Counter(), Counter()
    for name, s in tracer.self_s.items():
        layer_self[name.split(".")[0]] += s
        layer_spans[name.split(".")[0]] += calls[name]
    v = dict(extra)
    for name in METRICS:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            v[name] = calls[stem] / passes
        elif kind == "self_pct":
            share = layer_self[stem] if stem in LAYERS else tracer.self_s.get(stem, 0.0)
            v[name] = 100.0 * share / traced_wall
        elif kind == "spans":
            v[name] = layer_spans[stem] / passes
    for name in ("polyring.mul.pairs", "polyring.mul.terms_out",
                 "diffops.divided_difference.terms_in", "diffops.divided_difference.terms_out",
                 "diffops.isobaric.intermediate_terms", "pipedreams.dreams",
                 "lascouxbasis.peel_steps", "cli.emit.bytes"):
        v[name] = counts[name] / passes
    pairs = counts["polyring.mul.pairs"]
    v["polyring.mul.merge_ratio"] = counts["polyring.mul.terms_out"] / pairs if pairs else 0.0
    lcalls = calls["families.lascoux"]
    v["families.lascoux.memo_hit_ratio"] = counts["families.lascoux.memo_hits"] / lcalls if lcalls else 0.0
    v["suites.checks"] = calls["suites.SuiteResult.check"] / passes
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args(argv)

    goldens = workloads.load_goldens()
    t0 = time.perf_counter()
    cli = workloads.import_cli(workloads.HERE.parent)
    import_s = time.perf_counter() - t0
    import orthodontia
    from orthodontia import diagrams, diffops, families, lascouxbasis, pipedreams, polyring, suites

    modules = {"polyring": polyring, "diffops": diffops, "families": families,
               "pipedreams": pipedreams, "diagrams": diagrams,
               "lascouxbasis": lascouxbasis, "suites": suites, "cli": cli}
    tracer = Tracer()
    traced_main = types.SimpleNamespace(main=tracer.wrap("cli.main", cli.main.main))
    attempted = failed = 0
    retained = 0
    walls = {False: [], True: []}

    def run_pass(batch, traced):
        nonlocal attempted, failed, retained
        wall = 0.0
        for inv in batch:
            for table in memo_tables(families) + memo_tables(pipedreams):
                table.clear()  # as in a fresh process
            if traced:
                install(tracer, modules, orthodontia)
            start = time.perf_counter()
            try:
                code, out = workloads.invoke(traced_main if traced else cli.main, inv.argv)
            finally:
                wall += time.perf_counter() - start
                tracer.unpatch()
            attempted += inv.ops
            if code != 0 or workloads.digest(out) != inv.sha256:
                failed += inv.ops
                print(f"FAILED: {inv.label()} (exit {code})", file=sys.stderr)
            if traced:
                retained = max(retained, terms_retained(families, polyring.Polynomial))
        walls[traced].append(wall)

    # Whole pass pairs, until the next one would pass the deadline.
    start = time.perf_counter()
    for batch in workloads.rounds(args.workload, args.seed, goldens):
        t0 = time.perf_counter()
        run_pass(batch, traced=False)
        run_pass(batch, traced=True)
        now = time.perf_counter()
        if now + (now - t0) - start > args.seconds:
            break

    passes = len(walls[True])
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    overhead = statistics.median(t - u for t, u in zip(walls[True], walls[False]))
    values = layer_values(tracer, passes, sum(walls[True]), {
        "families.table.terms_retained": retained,
        "cli.import_s": import_s,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / untraced,
    })

    args.spans.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(args.spans, "wt", compresslevel=1) as fh:
        fh.write('["id", "name", "start", "end", "parent"]\n')
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")

    layer_spans = {layer: values[f"{layer}.spans"] for layer in LAYERS}
    pred = PREDICTIONS[args.workload]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in METRICS.items()},
        "self_s": {k: s / passes for k, s in sorted(tracer.self_s.items())},
        "calls": {k: c / passes for k, c in sorted(tracer.calls.items())},
        "passes": passes,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans_recorded": len(tracer.spans),
        "predictions": {
            "exercised_without_spans": [l for l in pred["exercised"] if not layer_spans[l]],
            "bypassed_with_spans": [l for l in pred["bypassed"] if layer_spans[l]],
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
