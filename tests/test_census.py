import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import acceptance_corpus, atlas_graphs, census_by_solver, tree_corpus
from satminors import (
    Clause,
    CensusReport,
    EdgePolarity,
    SimpleGraph,
    census,
    decide_support,
    fixture_graph,
    is_minimal_unsat_support,
    solve,
    support_graph,
    supports_unsat_bruteforce,
    synthesize_witness,
)
from satminors.census import TooManyEdges, formula_at
from satminors.fixtures import CONFIG_CODES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NAMED_FIXTURES = (
    ["c3", "k4", "k4-e", "butterfly", "bowtie", "book", "square-butterfly"]
    + [f"cn:{k}" for k in range(3, 7)]
    + [f"hills:{n}" for n in range(1, 3)]
    + [f"config:{code}" for code in CONFIG_CODES]
)

# (sat_count, first unsatisfiable index) from the numpy sweep this census replaced
PINNED_SWEEP_RESULTS = {
    "config:eee1": (4048, 181),
    "config:eee2": (16192, 2223),
    "config:ppe1": (260224, 9131),
    "config:ppe2": (259968, 2283),
    "config:ppp1": (4154880, 10987),
    "config:ppp2": (4157952, 142059),
    "config:ppv1": (1034496, 35563),
    "config:ppv2": (1032960, 747),
    "config:pve": (64576, 2283),
    "config:pvv": (257152, 683),
    "config:vee": (16192, 667),
    "config:vve1": (62752, 2203),
    "config:vve2": (64448, 655),
    "config:vvv1": (253056, 2109),
    "config:vvv2": (256384, 655),
    "hills:4": (16245248, 683),
    "cn:12": (16777216, None),
}

graph_edges = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda e: e[0] != e[1]),
    max_size=14,
)


class TestEdgePolarity:
    def test_four_codes_bijective(self):
        clauses = {p.clause(1, 2) for p in EdgePolarity}
        assert clauses == {
            Clause.of(1, 2),
            Clause.of(1, -2),
            Clause.of(-1, 2),
            Clause.of(-1, -2),
        }

    def test_orientation_canonical(self):
        assert EdgePolarity.PN.clause(2, 1) == Clause.of(1, -2)


class TestFormulaAt:
    def test_lexicographic_decoding(self):
        edges = [(1, 2), (1, 3)]
        assert formula_at(edges, 0).clauses == (Clause.of(1, 2), Clause.of(1, 3))
        # first edge is the most significant digit
        assert formula_at(edges, 4).clauses == (Clause.of(1, -2), Clause.of(1, 3))
        assert formula_at(edges, 3).clauses == (Clause.of(1, 2), Clause.of(-1, -3))


class TestCensus:
    def test_triangle_all_satisfiable(self):
        report = census(fixture_graph("c3"))
        assert (report.total, report.sat_count, report.unsat_count) == (64, 64, 0)
        assert report.example_unsat is None

    def test_k4_minus_e_all_satisfiable(self):
        report = census(fixture_graph("k4-e"))
        assert (report.total, report.sat_count, report.unsat_count) == (1024, 1024, 0)

    def test_butterfly_finds_unsatisfiable(self):
        report = census(fixture_graph("butterfly"))
        assert report.total == 4096
        assert report.unsat_count >= 1
        assert not solve(report.example_unsat).satisfiable

    def test_matches_solver_oracle(self):
        small = [g for g in acceptance_corpus() if len(g.edges) <= 4]
        named = [fixture_graph(n) for n in NAMED_FIXTURES]
        graphs = small + [g for g in named if len(g.edges) <= 6]
        assert len(small) >= 100
        for g in graphs:
            got, want = census(g), census_by_solver(g)
            assert (got.sat_count, got.unsat_count, got.example_unsat) == (
                want.sat_count,
                want.unsat_count,
                want.example_unsat,
            ), g

    def test_matches_pinned_sweep_results(self):
        for name, (sat, first) in PINNED_SWEEP_RESULTS.items():
            g = fixture_graph(name)
            report = census(g, cap=12)
            assert report.sat_count == sat, name
            expected = None if first is None else formula_at(g.sorted_edges(), first)
            assert report.example_unsat == expected, name

    @settings(deadline=None, max_examples=30)
    @given(graph_edges, st.permutations(range(1, 8)))
    def test_relabelling_keeps_sat_count(self, edges, perm):
        g = SimpleGraph.of(edges)
        relabelled = SimpleGraph.of([(perm[u - 1], perm[v - 1]) for u, v in edges])
        assert census(relabelled, cap=21).sat_count == census(g, cap=21).sat_count

    def test_runs_in_process_without_numpy(self):
        script = (
            "import multiprocessing, sys\n"
            "import satminors\n"
            "satminors.census(satminors.fixture_graph('butterfly'), threads=4)\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "assert multiprocessing.active_children() == []\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_example_is_lexicographically_first(self):
        g = fixture_graph("butterfly")
        report = census(g)
        edges = g.sorted_edges()
        first = next(
            i for i in range(report.total) if not solve(formula_at(edges, i)).satisfiable
        )
        assert report.example_unsat == formula_at(edges, first)

    def test_edge_cap(self):
        with pytest.raises(TooManyEdges):
            census(fixture_graph("butterfly"), cap=5)

    def test_edgeless_graph(self):
        report = census(SimpleGraph.of([], isolated=[1, 2]))
        assert (report.total, report.sat_count, report.unsat_count) == (1, 1, 0)

    def test_single_edge(self):
        report = census(SimpleGraph.of([(1, 2)]))
        assert (report.total, report.unsat_count) == (4, 0)

    def test_isolated_vertices_do_not_change_counts(self):
        g = fixture_graph("c3")
        padded = SimpleGraph(g.vertices | {9}, g.edges)
        assert census(padded).sat_count == 64

    def test_report_invariants_enforced(self):
        g = fixture_graph("c3")
        with pytest.raises(ValueError, match="do not add up"):
            CensusReport(g, 64, 63, 0, None)


class TestSupportsUnsatBruteforce:
    def test_examples(self):
        assert supports_unsat_bruteforce(fixture_graph("k4"))
        assert supports_unsat_bruteforce(fixture_graph("book"))
        assert not supports_unsat_bruteforce(fixture_graph("c3"))

    def test_trees_never_support(self):
        for tree in tree_corpus(max_edges=6)[:10]:
            assert not supports_unsat_bruteforce(tree)

    def test_edge_deletion_monotone(self):
        # deleting an edge can never create support for an unsatisfiable sentence
        for name in ["c3", "k4-e", "square-butterfly"]:
            g = fixture_graph(name)
            assert not supports_unsat_bruteforce(g)
            for e in g.sorted_edges():
                smaller = SimpleGraph(g.vertices, g.edges - {e})
                assert not supports_unsat_bruteforce(smaller)


class TestMinimality:
    def test_butterfly_minimal(self):
        assert is_minimal_unsat_support(fixture_graph("butterfly"))

    def test_bowtie_minimal(self):
        assert is_minimal_unsat_support(fixture_graph("bowtie"))

    def test_pendant_breaks_minimality(self):
        g = fixture_graph("butterfly")
        bigger = SimpleGraph.of(sorted(g.edges) + [(5, 6)])
        assert supports_unsat_bruteforce(bigger)
        assert not is_minimal_unsat_support(bigger)

    def test_subdivision_breaks_minimality(self):
        from satminors import subdivide_edge

        g = subdivide_edge(fixture_graph("k4"), (1, 2))
        assert supports_unsat_bruteforce(g)
        assert not is_minimal_unsat_support(g)

    def test_requires_supporting_graph(self):
        with pytest.raises(ValueError):
            is_minimal_unsat_support(fixture_graph("c3"))


class TestJudgeAtScale:
    """The census judges decide_support on every graph with at most seven vertices."""

    def test_atlas(self):
        graphs = atlas_graphs()
        assert len(graphs) == 1245 and max(len(g.edges) for g in graphs) == 21
        reports = [census(g, cap=21) for g in graphs]
        verdicts = [decide_support(g) for g in graphs]
        mismatches = [g for g, r, v in zip(graphs, reports, verdicts)
                      if (r.unsat_count > 0) != v.supports_unsat]
        assert mismatches == []
        positives = [SimpleGraph.of(g.edges) for g, v in zip(graphs, verdicts) if v.supports_unsat]
        assert len(positives) > 900
        for g in positives:
            w = synthesize_witness(g)
            assert not solve(w).satisfiable and support_graph(w) == g, g
