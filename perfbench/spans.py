"""Span tracing for the per-layer run, installed only while it lasts.

The traced run replaces selected public functions of each satminors
module with span-recording wrappers at every module attribute bound to
them (``satminors.formula.reduce``, ``satminors.simplify.substitute``,
``satminors.witness.solve``, the package-level names and so on), so calls
from one layer into another nest as child spans without any change to
``src/``.  A span records its name, start, end, parent, operation id, an
input size and a few counts taken from its arguments and result.  Spans
stay in memory and are written out when the run ends.

A layer is a module; its self time is the time its spans cover minus the
time covered by their child spans.  Time inside a wrapped function that is
spent in an unwrapped helper of another module counts for the wrapped
function's layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("formula", "simplify", "sat", "graph", "minors", "witness", "census", "cli")
MODULES = LAYERS + ("fixtures",)


def _cnf(s) -> int:
    return len(s.clauses)


def _graph(g) -> int:
    return len(g.vertices) + len(g.edges)


def _arg_graph(a, r):
    return _graph(a[0]), None


def _to_simple(a, r):
    consts = sum(isinstance(step.replacement, bool) for step in r.trace)
    return _cnf(a[0]), {"bindings_const": consts, "bindings_literal": len(r.trace) - consts}


# The wrapped functions, by layer.  Each maps to an observer giving the
# span's input size (clauses, or vertices plus edges) and its counts.
TRACED = {
    "formula": {
        "parse_dimacs": lambda a, r: (_cnf(r), None),
        "reduce": lambda a, r: (len(a[0]), None),
        "substitute": lambda a, r: (_cnf(a[0]), None),
        "apply_assignment": lambda a, r: (_cnf(a[0]), None),
        "rename_variables": lambda a, r: (_cnf(a[0]), None),
        "cnf_to_dimacs": lambda a, r: (_cnf(a[0]), None),
    },
    "simplify": {
        "to_simple": _to_simple,
        "lift_model": lambda a, r: (0, None),
    },
    "sat": {
        "solve": lambda a, r: (
            _cnf(a[0]),
            {"literal_nodes": 2 * len(a[0].variables()), "unsat": int(not r.satisfiable)},
        ),
        "check_model": lambda a, r: (_cnf(a[0]), None),
    },
    "graph": {
        "parse_edgelist": lambda a, r: (_graph(r), None),
        "support_graph": lambda a, r: (_graph(r), None),
        "connected_components": _arg_graph,
        "cycle_rank": _arg_graph,
        "two_core": _arg_graph,
        "cut_vertices": _arg_graph,
    },
    "minors": {
        "decide_support": _arg_graph,
        "find_topological_minor": lambda a, r: (
            _graph(a[0]),
            {"host_vertices": len(a[0].vertices), "hits": int(r is not None)},
        ),
        "verify_embedding": _arg_graph,
    },
    "witness": {
        "synthesize_witness": lambda a, r: (
            _graph(a[0]),
            {"clauses_emitted": 0 if r is None else _cnf(r)},
        ),
        "lift_subdivision": lambda a, r: (_cnf(a[0]), None),
        "extend_to_supergraph": lambda a, r: (_cnf(a[0]), None),
        "witness_to_dimacs": lambda a, r: (_cnf(a[0]), None),
    },
    "census": {
        "census": lambda a, r: (_graph(a[0]), {"sentences": r.total}),
    },
    "cli": {
        "main": lambda a, r: (0, None),
    },
}


def _module(name: str):
    # importing also loads satminors.cli, which the package does not import
    return importlib.import_module(f"satminors.{name}")


def _modules():
    return [sys.modules["satminors"]] + [_module(m) for m in MODULES]


def bindings() -> list[tuple[object, str, object]]:
    """Every (module, attribute, function) binding of a traced function."""
    targets = {
        id(getattr(_module(layer), name))
        for layer, names in TRACED.items()
        for name in names
    }
    return [
        (module, attr, value)
        for module in _modules()
        for attr, value in vars(module).items()
        if id(value) in targets
    ]


class Tracer:
    """Collects spans in memory; op is the id stamped on new spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: object = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, 0, None)
            size, counts = observe(args, result)
            spans[index] = (name, start, end, parent, self.op, size, counts)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        patched = bindings()
        wrappers = {}
        for layer, names in TRACED.items():
            module = _module(layer)
            for name, observe in names.items():
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn, observe)
        try:
            for module, attr, fn in patched:
                setattr(module, attr, wrappers[id(fn)])
            yield self
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, size, counts in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                       "op": op, "size": size}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


def _slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(busy time) against log(input size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(ns, 1)) for _, ns in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Busy time, call counts, self time, work counts and slopes per layer.

    Names follow BENCHMARK.json: ``<layer>.<function>.s`` is the time the
    function's spans cover, ``.calls`` their number, ``<layer>.self_s`` the
    layer's self time and ``<layer>.slope`` the log-log slope of the busy
    time of calls entering the layer against their input size.
    """
    n = len(spans)
    child_ns = [0] * n
    in_census = [False] * n
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            in_census[i] = in_census[parent]
        in_census[i] = in_census[i] or name == "census.census"
    busy = defaultdict(int)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    counts = defaultdict(int)
    entries = defaultdict(list)
    for i, (name, start, end, parent, _op, size, extra) in enumerate(spans):
        layer = name.split(".", 1)[0]
        busy[name] += end - start
        calls[name] += 1
        self_ns[layer] += end - start - child_ns[i]
        for key, value in (extra or {}).items():
            counts[f"{layer}.{key}"] += value
        if size > 0 and (parent < 0 or spans[parent][0].split(".", 1)[0] != layer):
            entries[layer].append((size, end - start))
        if name == "sat.solve" and in_census[i]:
            counts["census.solve_calls"] += 1
        if name == "formula.reduce":
            counts["formula.reduce.clauses_in"] += size
        if name == "formula.substitute":
            counts["formula.substitute.clauses"] += size

    s = lambda name: busy[name] / 1e9
    searches = calls["minors.find_topological_minor"]
    census_s = s("census.census")
    out = {
        "formula.parse_dimacs.s": s("formula.parse_dimacs"),
        "formula.reduce.s": s("formula.reduce"),
        "formula.reduce.clauses_in": counts["formula.reduce.clauses_in"],
        "formula.substitute.calls": calls["formula.substitute"],
        "formula.substitute.clauses": counts["formula.substitute.clauses"],
        "simplify.to_simple.s": s("simplify.to_simple"),
        "simplify.to_simple.calls": calls["simplify.to_simple"],
        "simplify.bindings_const": counts["simplify.bindings_const"],
        "simplify.bindings_literal": counts["simplify.bindings_literal"],
        "simplify.lift_model.s": s("simplify.lift_model"),
        "sat.solve.s": s("sat.solve"),
        "sat.solve.calls": calls["sat.solve"],
        "sat.solve.literal_nodes": counts["sat.literal_nodes"],
        "sat.solve.unsat": counts["sat.unsat"],
        "sat.check_model.s": s("sat.check_model"),
        "graph.parse_edgelist.s": s("graph.parse_edgelist"),
        "graph.support_graph.s": s("graph.support_graph"),
        "graph.connected_components.s": s("graph.connected_components"),
        "graph.two_core.s": s("graph.two_core"),
        "graph.cut_vertices.s": s("graph.cut_vertices"),
        "minors.decide_support.s": s("minors.decide_support"),
        "minors.decide_support.calls": calls["minors.decide_support"],
        "minors.find_topological_minor.s": s("minors.find_topological_minor"),
        "minors.find_topological_minor.calls": searches,
        "minors.host_vertices": counts["minors.host_vertices"],
        "minors.hit_ratio": counts["minors.hits"] / searches if searches else 0.0,
        "minors.verify_embedding.s": s("minors.verify_embedding"),
        "witness.synthesize_witness.s": s("witness.synthesize_witness"),
        "witness.synthesize_witness.calls": calls["witness.synthesize_witness"],
        "witness.lift_subdivision.calls": calls["witness.lift_subdivision"],
        "witness.lift_subdivision.s": s("witness.lift_subdivision"),
        "witness.clauses_emitted": counts["witness.clauses_emitted"],
        "census.census.s": census_s,
        "census.census.calls": calls["census.census"],
        "census.sentences": counts["census.sentences"],
        "census.sentences_per_s": counts["census.sentences"] / census_s if census_s else 0.0,
        "census.solve_calls": counts["census.solve_calls"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for layer in ("simplify", "sat", "graph", "minors"):
        out[f"{layer}.slope"] = _slope(entries[layer])
    return out
