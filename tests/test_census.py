import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import (
    acceptance_corpus,
    atlas_graphs,
    census_by_solver,
    formula_at_by_polarity,
    frontier_dp_sorted,
    hung,
    hung_core_graph,
    ladder,
    perfbench_analyze_graphs,
    strip,
    tree_corpus,
    two_core_by_networkx,
)
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
from satminors.census import TooManyEdges, _slot_layout, _small_frontier_order, formula_at
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

    def test_matches_the_polarity_decoding_at_every_index(self):
        # edges sharing vertices, so a vertex's literal varies from clause to clause
        edge_lists = [[(1, 2)], [(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)],
                      [(1, 3), (2, 3), (3, 4), (3, 5)], [(1, 2), (1, 4), (2, 3), (3, 4)],
                      [(2, 5), (3, 5), (4, 5), (3, 7), (5, 7)]]
        for edges in edge_lists:
            for index in range(4 ** len(edges)):
                got, want = formula_at(edges, index), formula_at_by_polarity(edges, index)
                assert got == want and got.clauses == want.clauses, (edges, index)


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


CORES = {name: sorted(fixture_graph(name).edges) for name in ("butterfly", "bowtie", "k4", "book")}


def scattered(rng: random.Random, max_edges: int) -> SimpleGraph:
    """Two to four small components, some cyclic, and isolated vertices, on shuffled ids."""
    ids = list(range(1, 30))
    rng.shuffle(ids)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(2, 4)):
        room = max_edges - len(edges)
        if room < 1:
            break
        if room >= 7 and rng.random() < 0.5:
            part = rng.choice(list(CORES.values()))
        elif room >= 3 and rng.random() < 0.5:
            part = [(1, 2), (2, 3), (1, 3)]
        else:
            part = [(rng.randrange(1, v), v) for v in range(2, 2 + rng.randint(1, min(room, 3)))]
        base = 1 + max((v for e in edges for v in e), default=0)
        edges += [(a + base, b + base) for a, b in part]
    vertices = {v for e in edges for v in e} | set(range(1, rng.randint(1, 5) + 1))
    return SimpleGraph.of([(ids[a - 1], ids[b - 1]) for a, b in edges],
                          isolated=[ids[v - 1] for v in vertices])


def solver_report(g: SimpleGraph) -> tuple:
    """(sat, unsat, example) from one solver run per sentence on g."""
    r = census_by_solver(g)
    return r.sat_count, r.unsat_count, r.example_unsat


def sorted_dp_report(g: SimpleGraph) -> tuple:
    """(sat, unsat, example) from the sorted-order DP over every edge, leaves included."""
    edges = g.sorted_edges()
    sat, unsat, first = frontier_dp_sorted(edges)
    return sat, unsat, None if first is None else formula_at_by_polarity(edges, first)


class TestCoreCensus:
    """census counts the 2-core only: unsat(g) = 4**L * unsat(core), L the peeled
    edges, and the example is the core's with PP on every peeled edge."""

    @staticmethod
    def report(g: SimpleGraph) -> tuple:
        r = census(g, cap=len(g.edges))
        assert r.total == 4 ** len(g.edges)
        return r.sat_count, r.unsat_count, r.example_unsat

    def test_atlas_up_to_ten_edges(self):
        graphs = [g for g in atlas_graphs() if len(g.edges) <= 10]
        assert len(graphs) == 705
        for g in graphs:
            assert self.report(g) == sorted_dp_report(g), g
        for g in graphs:
            if len(g.edges) <= 4:
                assert self.report(g) == solver_report(g), g

    def test_cores_with_trees_hung_on(self):
        rng = random.Random(20261020)
        hosts = [(name, hung(rng, core, 10)) for name, core in CORES.items() for _ in range(25)]
        for _, g in hosts:
            assert self.report(g) == sorted_dp_report(g), g
            peeled = g.edges - two_core_by_networkx(g).edges
            # the example is PP, the clause (u, v), on every peeled edge
            assert peeled and peeled <= set(census(g).example_unsat.clauses), g
        # per core, its first host of seven edges against the solver (16384 solves
        # each); the bowtie and the book have seven edges bare
        small = {}
        for name, g in hosts:
            if len(g.edges) == 7:
                small.setdefault(name, g)
        assert set(small) == {"butterfly", "k4"}
        for g in small.values():
            assert self.report(g) == solver_report(g), g

    def test_several_components_and_isolated_vertices(self):
        rng = random.Random(20261021)
        graphs = [scattered(rng, 10) for _ in range(150)]
        assert sum(census(g).unsat_count > 0 for g in graphs) > 20
        assert sum(len(g.vertices) > len({v for e in g.edges for v in e}) for g in graphs) > 100
        for g in graphs:
            assert self.report(g) == sorted_dp_report(g), g

    def test_trees_never_reach_the_dp(self, monkeypatch):
        census_module = sys.modules["satminors.census"]

        def refuse(*args):
            raise AssertionError("a forest reached the frontier DP")

        for name in ("_slot_layout", "_small_frontier_order", "_transitions", "_count"):
            monkeypatch.setattr(census_module, name, refuse)
        trees = tree_corpus(10)
        assert max(len(t.edges) for t in trees) == 10
        forests = [SimpleGraph(t.vertices | {99}, t.edges) for t in trees]
        forests.append(SimpleGraph.of([(1, 2), (3, 4), (4, 5)], isolated=[6]))
        for g in trees + forests:
            r = census(g)
            assert (r.total, r.sat_count, r.unsat_count, r.example_unsat) == (
                4 ** len(g.edges), 4 ** len(g.edges), 0, None)
        monkeypatch.undo()
        for g in trees:
            assert self.report(g) == sorted_dp_report(g), g

    def test_cap_counts_every_edge(self):
        g = SimpleGraph.of(CORES["butterfly"] + [(5, 6), (6, 7)])
        with pytest.raises(TooManyEdges) as refused:
            census(g, cap=7)
        assert (refused.value.cap, refused.value.count) == (7, 8)
        path = SimpleGraph.of([(i, i + 1) for i in range(1, 12)])
        with pytest.raises(TooManyEdges):
            census(path)


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


def walked_width(g: SimpleGraph) -> int:
    """The census's slot count on g: the lesser of its sorted and its greedy
    core order's width, 0 for a graph with no core."""
    core = sorted(two_core_by_networkx(g).edges)
    return min(_slot_layout(core)[1], _slot_layout(_small_frontier_order(core))[1]) if core else 0


class TestJudgeAtScale:
    """The census judges decide_support on every graph with at most seven
    vertices, and on hosts of up to 64 vertices that a narrow order walks."""

    # the widest walked order judged; the census's states grow as 4 ** width
    WIDTH = 5

    def test_hosts_at_the_deciders_sizes(self):
        families = ("random-sparse", "subdivided-k4", "subdivided-book", "figure-eight")
        graphs = [g for seed in (1, 2, 3) for g in perfbench_analyze_graphs(seed, families)]
        rng = random.Random(20261116)
        graphs += [hung_core_graph(rng, core, 64) for core in ("tree", "cycle", "theta", "figure-eight")
                   for _ in range(10)]
        graphs += [fixture_graph(f"hills:{k}") for k in range(3, 11)]
        graphs += [strip(n) for n in range(4, 41)] + [ladder(n) for n in range(3, 11)]
        # chosen by width alone, before any verdict is read
        hosts = [g for g in graphs if walked_width(g) <= self.WIDTH]
        assert len(hosts) > 400 and max(len(g.vertices) for g in hosts) >= 64
        for g in hosts:
            verdict = decide_support(g, cap=10**6)
            assert (census(g, cap=10**6).unsat_count > 0) == verdict.supports_unsat, g
            if verdict.supports_unsat:
                w = synthesize_witness(g, cap=10**6)
                assert not solve(w).satisfiable and support_graph(w) == g, g

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
