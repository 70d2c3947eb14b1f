"""Pins on what a change of internals must not move.

The public names are listed literally, so adding or removing one has to be
done on purpose.  The digests are SHA-256 sums of byte-exact transcripts
computed once with the dataclass-per-literal implementation that the
signed-int clauses replaced: any change to a reduced sentence, a simplifier
trace, a solver model or conflict variable, DIMACS text, a witness or a
census example changes them.
"""

import hashlib
import random

import satminors
from corpus_util import ladder
from satminors import (
    Literal,
    census,
    cnf_to_dimacs,
    fixture_graph,
    parse_dimacs,
    reduce,
    solve,
    subdivide_edge,
    synthesize_witness,
    to_simple,
    witness_to_dimacs,
)
from satminors.cli import main
from satminors.fixtures import CONFIG_CODES
from satminors.formula import BOTTOM, TOP, ClauseTooLong

PUBLIC_NAMES = [
    "Assignment", "BaseFormula", "CensusReport", "Clause", "Cnf2", "Edge",
    "EdgePolarity", "Embedding", "Literal", "Multigraph", "Pattern", "Reason",
    "SimpleGraph", "SimplifyOutcome", "SimplifyResult", "SolveResult",
    "SubstitutionStep", "Verdict", "apply_assignment", "as_simple",
    "associated_multigraph", "base_formula", "census", "check_model",
    "cnf_to_dimacs", "collapse_pair", "connected_components", "contract_edge",
    "contract_witness", "count_pair_clauses", "cut_vertices", "cycle_rank",
    "decide_support", "edge", "edgelist_to_text", "eliminate_units",
    "extend_to_supergraph", "find_topological_minor", "fixture_graph",
    "fixture_names", "fixtures", "formula", "graph", "is_minimal_unsat_support",
    "is_reduced", "is_subgraph", "lift_model", "lift_subdivision", "minors",
    "parse_dimacs", "parse_edgelist", "pattern_graph", "reduce",
    "rename_variables", "sat", "simplify", "smooth_vertex", "solve",
    "subdivide_edge", "substitute", "support_graph", "supports_unsat_bruteforce",
    "synthesize_witness", "to_dot", "to_simple", "two_core",
    "unsubdivide_witness", "verify_embedding", "witness", "witness_to_dimacs",
]

SENTENCE_SEED = 20261018
SENTENCE_COUNT = 400
SENTENCES_DIGEST = "068f939da1a726c0811b99a55d01af567c3540087c672a841773548eb44bf3d7"
GRAPHS_DIGEST = "01f0574dccadcd267f94d01af63157261eca38e7e1e1da5c0edf5f85729b50b4"

# `census --cap 13` stdout (SHA-256) and `census --cap 13 --record` line on
# hosts whose sorted edge order is wide, recorded from the sorted-order DP
# that the reordered count and the lazy first-example search replaced.
CENSUS_CLI_PINS = {
    "ladder:5": (
        "53fdab0de89f41a36815fd661ab5e023ce0d02ac536d8c2677fe99e21fa32627",
        "921246af27f53b3d 67108864 66764800 344064",
    ),
    "config:vvv2": (
        "1eb3fd8a452baa212b10c8c16682e6900f175cc076504d9a750708eccb0fa61e",
        "34b726e10323e5b1 262144 256384 5760",
    ),
    "config:vve2": (
        "398b4e487bc93a2f68193a1c44c785d24a17f116a1e8861422637e1e53878d94",
        "27bc01e884caa25f 65536 64448 1088",
    ),
}


def _raw_sentence(rng: random.Random) -> list[list]:
    """Raw clauses mixing ints, Literal values and constants, with sparse ids at times."""
    nv = rng.randint(1, 10)
    scale = rng.choice([1, 1, 1, 97])

    def lit():
        n = rng.choice([1, -1]) * rng.randint(1, nv) * scale
        return Literal.from_int(n) if rng.random() < 0.15 else n

    raw = []
    for _ in range(rng.randint(0, 2 * nv + 4)):
        shape = rng.random()
        if shape < 0.1:
            row = [lit()]
        elif shape < 0.85:
            row = [lit(), lit()]
        else:
            a, b = lit(), lit()
            row = [a, b, rng.choice([a, b, TOP, BOTTOM])]
        if rng.random() < 0.05:
            row.append(rng.choice([TOP, BOTTOM]))
        raw.append(row)
    if rng.random() < 0.03:
        raw.append([1, 2 * scale, 3 * scale])
    return raw


def _sentence_transcript() -> str:
    rng = random.Random(SENTENCE_SEED)
    lines = []
    for _ in range(SENTENCE_COUNT):
        try:
            s = reduce(_raw_sentence(rng))
        except ClauseTooLong:
            lines.append("ClauseTooLong")
            continue
        outcome = to_simple(s)
        lines += [repr(s), cnf_to_dimacs(s), outcome.result.value, repr(outcome.trace)]
        lines.append(cnf_to_dimacs(outcome.cnf))
        for sentence in (s, outcome.cnf):
            r = solve(sentence)
            model = None if r.model is None else sorted(r.model.items())
            lines.append(f"{r.satisfiable} {model} {r.conflict_var}")
    return "\n".join(lines)


def _pinned_graphs():
    names = (
        ["c3", "k4", "k4-e", "butterfly", "bowtie", "book", "square-butterfly"]
        + [f"cn:{k}" for k in range(3, 11)]
        + [f"hills:{n}" for n in range(1, 4)]
        + [f"config:{code}" for code in CONFIG_CODES]
    )
    graphs = [fixture_graph(n) for n in names]
    for name in ("k4", "book", "butterfly", "bowtie"):
        g = fixture_graph(name)
        graphs += [subdivide_edge(g, e) for e in g.sorted_edges()]
    return [g for g in graphs if len(g.edges) <= 10]


def _graph_transcript() -> str:
    lines = []
    for g in _pinned_graphs():
        w = synthesize_witness(g)
        lines.append("None" if w is None else witness_to_dimacs(w))
        report = census(g)
        lines.append(f"{report.sat_count} {report.unsat_count}")
        if report.example_unsat is not None:
            lines.append(cnf_to_dimacs(report.example_unsat))
    return "\n".join(lines)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_public_names_are_pinned():
    assert sorted(satminors.__all__) == PUBLIC_NAMES


def test_sentence_outputs_match_pinned_digest():
    assert _digest(_sentence_transcript()) == SENTENCES_DIGEST


def test_witnesses_and_census_examples_match_pinned_digest():
    assert _digest(_graph_transcript()) == GRAPHS_DIGEST


def test_hot_paths_build_no_literal(monkeypatch):
    built = []
    original = Literal.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Literal, "__init__", counting)
    Literal(1)
    assert len(built) == 1, "the counter is not wired"
    built.clear()
    for g in _pinned_graphs():
        report = census(g)
        w = synthesize_witness(g)
        for s in (report.example_unsat, w):
            if s is not None:
                solve(parse_dimacs(cnf_to_dimacs(s)))
    assert built == []


def test_census_cli_outputs_match_pinned(tmp_path, capsys):
    for name, (stdout_digest, record) in CENSUS_CLI_PINS.items():
        g = ladder(5) if name == "ladder:5" else fixture_graph(name)
        path = tmp_path / "host.txt"
        path.write_text(satminors.edgelist_to_text(g))
        assert main(["census", str(path), "--cap", "13"]) == 0
        assert _digest(capsys.readouterr().out) == stdout_digest, name
        assert main(["census", str(path), "--cap", "13", "--record"]) == 0
        assert capsys.readouterr().out == record + "\n", name
