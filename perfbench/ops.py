"""The three workloads: their operations, correctness gates and CLI cases.

Every operation hands the library only generated text and checks the
result against the answer known from construction and against the
independent oracles: check_model on every model, verify_embedding on every
embedding, a solver run on every witness and census example, and the
census against decide_support.  Any exception, cap refusal included, is a
failed operation.

The library is reached through the package-level names (``sm.solve`` and
so on) at call time, so the traced run sees these calls as spans.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import gen

WORKLOADS = ("sentences", "analyze", "census")


class Mismatch(AssertionError):
    """An operation returned an answer other than the known one."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Op:
    kind: str  # solve, reduce, analyze or census
    case: gen.Sentence | gen.Graph


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    case: gen.Sentence | gen.Graph


# ---------------------------------------------------------------------------
# workload inputs

# Sizes are fixed per workload and only the content varies with the seed, so
# per-operation cost and the latency percentiles stay put from seed to seed.
FULL = {
    # eight solves of 2000 clauses, below the bigger solves and the longest
    # equivalence chains but above every other operation, hold the 90th
    # percentile
    "solve_sizes": (2000, 2000, 2000, 2000, 4000, 8000, 16000),
    # the middle sizes come twice per round, so the median falls inside them
    "chain_sizes": (8, 32, 32, 64),
    "mixed_sizes": (25, 50, 50, 100),
    "reduce_rounds": 5,
    "sparse": ((7, 8), 70),
    "k4": (40, 22),
    "book": (40, 8),
    "figure_eight": ((16, 18), 24),
    "big": (1500, 27),
    # edge count: (sample graphs, the orders they take in turn).  Trees with
    # E = 3 and E = 4 (solver engine, 64 and 256 solves each, cost fixed by
    # the order) hold the median and the 90th percentile.  The vector
    # engine's cost grows with 2^order and is cut short on graphs that do
    # not qualify, so from E = 5 on the orders avoid cycle rank 2, where
    # the verdict (theta or figure-eight core) would depend on the seed;
    # E = 5 on 4 vertices is always K4 minus an edge, a theta
    "census_sample": {1: (10, (2,)), 2: (10, (3,)), 3: (40, (4,)), 4: (40, (5,)), 5: (6, (4, 5, 6)),
                      6: (6, (4, 6)), 7: (6, (5,)), 8: (6, (5, 6)), 9: (4, (5, 6))},
    "census_fixture_max_edges": 10,
}
QUICK = {
    "solve_sizes": (200, 400),
    "chain_sizes": (4, 8),
    "mixed_sizes": (12, 25),
    "reduce_rounds": 1,
    "sparse": ((6,), 6),
    "k4": (16, 2),
    "book": (16, 1),
    "figure_eight": ((5,), 1),
    "big": (200, 1),
    "census_sample": {e: (1, (None,)) for e in range(1, 8)},
    "census_fixture_max_edges": 7,
}


def build(workload: str, seed: int, quick: bool, sm) -> tuple[list[Op], list[CliCase]]:
    """The workload's operations and the fixed subset its CLI phase runs."""
    plan = QUICK if quick else FULL
    rng = random.Random(f"{workload}:{seed}")
    return {"sentences": _sentences, "analyze": _analyze, "census": _census}[workload](rng, plan, sm)


def _sentences(rng, plan, sm):
    solves = []
    for size in plan["solve_sizes"]:
        solves += [Op("solve", gen.planted_sat(rng, size)), Op("solve", gen.planted_unsat(rng, size))]
    reduces = []
    for _ in range(plan["reduce_rounds"]):
        for n, m in zip(plan["chain_sizes"], plan["mixed_sizes"]):
            reduces += [
                Op("reduce", gen.unit_chain(rng, n, contradict=False)),
                Op("reduce", gen.unit_chain(rng, n, contradict=True)),
                Op("reduce", gen.equivalence_chain(rng, n)),
                Op("reduce", gen.random_mixed(rng, m, poison=False)),
                Op("reduce", gen.random_mixed(rng, m, poison=True)),
            ]
    # the smallest solve inputs (SAT, UNSAT, SAT), which hold the median of
    # the CLI timings, and two small reduce inputs
    cli = [CliCase(("solve",), op.case) for op in solves[:3]]
    cli += [CliCase(("reduce",), op.case) for op in reduces[7:9]]
    return solves + reduces, cli


def _analyze(rng, plan, sm):
    orders, count = plan["sparse"]
    ops = [
        Op("analyze", gen.random_sparse(rng, orders[i % len(orders)], 2 + i % 3))
        for i in range(count)
    ]
    size, count = plan["k4"]
    k4 = [Op("analyze", gen.subdivided_k4(rng, size)) for _ in range(count)]
    size, count = plan["book"]
    ops += k4 + [Op("analyze", gen.subdivided_book(rng, size)) for _ in range(count)]
    ks, count = plan["figure_eight"]
    ops += [Op("analyze", gen.figure_eight(ks[i % len(ks)])) for i in range(count)]
    size, count = plan["big"]
    big = []
    for make in (gen.big_tree, gen.big_unicyclic, gen.big_theta):
        big += [Op("analyze", make(rng, size)) for _ in range(count)]
    ops += big
    argv = ("analyze", "--witness", "-", "--json")
    # qualifying graphs hold the median; the big ones cover the 'no' report
    cli = [CliCase(argv, op.case) for op in k4[:3] + big[:2]]
    return ops, cli


def _census(rng, plan, sm):
    ops = []
    for nedges, (count, orders) in plan["census_sample"].items():
        ops += [Op("census", gen.sampled_connected(rng, nedges, orders[i % len(orders)])) for i in range(count)]
    fixtures = []
    for name in sm.fixture_names():
        if not name.startswith("config:"):
            continue
        g = sm.fixture_graph(name)
        if len(g.edges) > plan["census_fixture_max_edges"]:
            continue
        # three triangles joined pairwise: connected with cycle rank >= 3
        rank = len(g.edges) - len(g.vertices) + 1
        text = gen.edgelist(sorted(g.edges))
        fixtures.append(Op("census", gen.Graph(name, text, rank >= 3)))
    ops += fixtures
    small = [op for op in ops if op.case.family in ("sample-e2", "sample-e5")]
    picks = sorted(fixtures, key=lambda op: (len(op.case.text), op.case.family))[:3] + small[:1] + small[-1:]
    return ops, [CliCase(("census",), op.case) for op in picks]


# ---------------------------------------------------------------------------
# operations


_SHAPES = {"simple": "SIMPLE", "trivially-true": "TRIVIALLY-TRUE", "unsatisfiable": "UNSAT"}


def run_op(sm, op: Op) -> None:
    """Run one operation and check every output; raises on any wrong answer."""
    case = op.case
    if op.kind == "solve":
        s = sm.parse_dimacs(case.text)
        r = sm.solve(s)
        expect(r.satisfiable == case.satisfiable, f"{case.family}: solve says {r.satisfiable}")
        if r.satisfiable:
            expect(sm.check_model(s, r.model), f"{case.family}: model fails check_model")
    elif op.kind == "reduce":
        s = sm.parse_dimacs(case.text)
        outcome = sm.to_simple(s)
        shape = _SHAPES[outcome.result.value]
        expect(case.shape in (None, shape), f"{case.family}: to_simple gave {shape}, not {case.shape}")
        if shape == "UNSAT":
            expect(not case.satisfiable, f"{case.family}: satisfiable sentence reduced to UNSAT")
            return
        model = {}
        if shape == "SIMPLE":
            supports = [c.support for c in outcome.cnf.clauses]
            expect(all(len(p) == 2 for p in supports) and len(set(supports)) == len(supports),
                   f"{case.family}: SIMPLE outcome has a unit or a repeated pair")
            r = sm.solve(outcome.cnf)
            expect(r.satisfiable == case.satisfiable, f"{case.family}: simple form solves {r.satisfiable}")
            if not r.satisfiable:
                return
            model = r.model
        else:
            expect(case.satisfiable, f"{case.family}: unsatisfiable sentence reduced to true")
        lifted = sm.lift_model(outcome, model)
        expect(sm.check_model(s, lifted), f"{case.family}: lifted model fails check_model")
    elif op.kind == "analyze":
        g = sm.parse_edgelist(case.text)
        verdict = sm.decide_support(g)
        expect(verdict.supports_unsat == case.supports_unsat,
               f"{case.family}: decide_support says {verdict.supports_unsat}")
        if verdict.supports_unsat:
            expect(sm.verify_embedding(g, verdict.pattern, verdict.embedding),
                   f"{case.family}: embedding fails verify_embedding")
        else:
            expect(case.reason is None or verdict.reason.value == case.reason,
                   f"{case.family}: reason {verdict.reason.value}, not {case.reason}")
        w = sm.synthesize_witness(g)
        expect((w is not None) == case.supports_unsat, f"{case.family}: witness presence wrong")
        if w is not None:
            expect(not sm.solve(w).satisfiable, f"{case.family}: witness is satisfiable")
            expect(sm.support_graph(w) == g, f"{case.family}: witness support differs from the graph")
    elif op.kind == "census":
        g = sm.parse_edgelist(case.text)
        report = sm.census(g, cap=10, threads=1)
        expect(report.total == 4 ** len(g.edges), f"{case.family}: census total {report.total}")
        found = report.unsat_count > 0
        expect(found == case.supports_unsat, f"{case.family}: census finds unsat={found}")
        expect(sm.decide_support(g).supports_unsat == found, f"{case.family}: decide_support disagrees")
        if report.example_unsat is not None:
            expect(not sm.solve(report.example_unsat).satisfiable,
                   f"{case.family}: census example is satisfiable")
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------------------
# CLI phase: expected stdout and exit code from in-process library results


def expected_cli(sm, cc: CliCase) -> tuple[str, int]:
    """The stdout and exit code the CLI must produce for this case."""
    command = cc.argv[0]
    text = cc.case.text
    if command == "solve":
        r = sm.solve(sm.parse_dimacs(text))
        if r.satisfiable:
            lits = [str(v if r.model[v] else -v) for v in sorted(r.model)]
            return "SAT\nv " + " ".join(lits + ["0"]) + "\n", 0
        tail = "" if r.conflict_var is None else f"conflict variable: {r.conflict_var}\n"
        return "UNSAT\n" + tail, 20
    if command == "reduce":
        outcome = sm.to_simple(sm.parse_dimacs(text))
        label = _SHAPES[outcome.result.value]
        trace = "trace:" + "".join(f" {step!r}" for step in outcome.trace)
        return f"{label}\n{trace}\n" + sm.cnf_to_dimacs(outcome.cnf), 0
    if command == "analyze":
        g = sm.parse_edgelist(text)
        verdict = sm.decide_support(g)
        report: dict = {"format_version": 1}
        witness = ""
        if verdict.supports_unsat:
            emb = verdict.embedding
            report.update(
                verdict="supports-unsat",
                pattern=verdict.pattern.value,
                embedding={
                    "branch_map": {str(k): v for k, v in sorted(emb.branch_map.items())},
                    "paths": {f"{u}-{v}": list(p) for (u, v), p in sorted(emb.paths.items())},
                },
                witness_path="-",
            )
            witness = sm.witness_to_dimacs(sm.synthesize_witness(g))
        else:
            report.update(verdict="only-satisfiable", reason=verdict.reason.value, witness_path=None)
        return json.dumps(report, sort_keys=True) + "\n" + witness, 0
    if command == "census":
        report = sm.census(sm.parse_edgelist(text), cap=10, threads=1)
        out = f"{report.total} total, {report.sat_count} sat, {report.unsat_count} unsat\n"
        if report.example_unsat is not None:
            out += sm.cnf_to_dimacs(report.example_unsat, comments=["first unsat example"])
        return out, 0
    raise ValueError(f"no expected output for command {command!r}")
