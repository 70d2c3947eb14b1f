import itertools
import pickle
import random
import time

import networkx as nx
import pytest

from corpus_util import (
    acceptance_corpus,
    connected_components_by_edge_scan,
    cut_vertices_by_child_lists,
    cycle_rank_by_components,
    hung,
    hung_core_graph,
    is_canonical_by_scans,
    perfbench_texts,
    random_cnf,
    support_graph_by_multigraph,
    two_core_by_networkx,
)
from satminors import (
    Cnf2,
    Multigraph,
    Pattern,
    Reason,
    SimpleGraph,
    associated_multigraph,
    as_simple,
    census,
    connected_components,
    contract_edge,
    cut_vertices,
    cycle_rank,
    decide_support,
    edgelist_to_text,
    fixture_graph,
    is_subgraph,
    parse_edgelist,
    smooth_vertex,
    subdivide_edge,
    support_graph,
    to_dot,
    two_core,
)
from satminors import graph as graph_module
from satminors.formula import ParseError
from satminors.graph import (
    MAX_VERTEX_COUNT,
    EdgeAbsent,
    EdgeInTriangle,
    MultiEdgePresent,
    NotNontrivial,
    UnitClausePresent,
    _blocks,
    _parse_edgelist_lines,
    edge,
)

BOWTIE_SENTENCE = Cnf2.from_ints(
    [[1, 2], [-1, 3], [-2, 3], [-3, 4], [-4, 5], [-4, 6], [-5, -6]]
)


def to_nx(g: SimpleGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def random_graph(rng: random.Random, max_n: int = 7) -> SimpleGraph:
    n = rng.randint(1, max_n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = [e for e in pairs if rng.random() < 0.45]
    return SimpleGraph.of(chosen, isolated=range(1, n + 1))


def scattered_graph(rng: random.Random) -> SimpleGraph:
    """10 to 25 small random components on shuffled vertex ids."""
    ids = list(range(1, 151))
    rng.shuffle(ids)
    edges: list[tuple[int, int]] = []
    vertices: list[int] = []
    for _ in range(rng.randint(10, 25)):
        part = [ids.pop() for _ in range(rng.randint(1, 6))]
        vertices += part
        # a random spanning tree keeps the part connected; chords add cycles
        edges += [(part[i], part[rng.randrange(i)]) for i in range(1, len(part))]
        edges += [e for e in itertools.combinations(part, 2) if rng.random() < 0.3]
    return SimpleGraph.of(edges, isolated=vertices)


def hub_graph(rng: random.Random) -> SimpleGraph:
    """A hub of degree 50 to 80 whose leaves carry random chords and pendant paths."""
    leaves = list(range(2, rng.randint(52, 82)))
    edges = [(1, v) for v in leaves]
    edges += [tuple(rng.sample(leaves, 2)) for _ in range(rng.randint(0, 12))]
    fresh = leaves[-1] + 1
    for _ in range(rng.randint(0, 6)):
        anchor = rng.choice(leaves)
        for _ in range(rng.randint(1, 3)):
            edges.append((anchor, fresh))
            anchor, fresh = fresh, fresh + 1
    return SimpleGraph.of(edges, isolated=range(fresh, fresh + rng.randint(0, 3)))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class TestAssociatedMultigraph:
    def test_bowtie_sentence_supports_bowtie(self):
        mg = associated_multigraph(BOWTIE_SENTENCE)
        assert as_simple(mg) == fixture_graph("bowtie")

    def test_parallel_edges_counted(self):
        mg = associated_multigraph(Cnf2.from_ints([[1, 2], [-1, -2]]))
        assert mg.multiplicities()[(1, 2)] == 2
        assert not mg.is_simple
        with pytest.raises(MultiEdgePresent):
            as_simple(mg)

    def test_k4_base_sentence(self):
        s3 = Cnf2.from_ints([[1, 2], [1, 3], [-1, 4], [-2, -3], [2, -4], [3, -4]])
        assert support_graph(s3) == fixture_graph("k4")

    def test_edge_count_matches_clause_count(self):
        rng = random.Random(5)
        for _ in range(100):
            raw = []
            for _ in range(rng.randint(1, 12)):
                a, b = rng.sample(range(1, 7), 2)
                raw.append([rng.choice([1, -1]) * a, rng.choice([1, -1]) * b])
            s = Cnf2.from_ints(raw)
            if s.is_nontrivial:
                assert len(associated_multigraph(s).edges) == len(s.clauses)

    def test_rejects_constants_and_units(self):
        with pytest.raises(NotNontrivial):
            associated_multigraph(Cnf2.true())
        with pytest.raises(UnitClausePresent):
            associated_multigraph(Cnf2.from_ints([[1], [1, 2]]))

    def test_empty_multigraph_as_simple(self):
        mg = Multigraph(frozenset({1, 2, 3}), ())
        simple = as_simple(mg)
        assert simple.vertices == {1, 2, 3} and not simple.edges


def support_outcome(build, s: Cnf2):
    """repr of build(s), or the type and message of what it raises."""
    try:
        return repr(build(s))
    except Exception as exc:
        return type(exc), str(exc)


class TestSupportGraphAgainstMultigraph:
    """support_graph, built straight from the clauses, against the multigraph route."""

    def test_constants_units_and_repeated_pairs(self):
        sentences = [Cnf2.true(), Cnf2.false()] + [Cnf2.from_ints(raw) for raw in (
            [[1], [1, 2]],
            [[2, 3], [-1]],
            [[1, 2], [-1, -2]],
            [[3, 4], [-3, 4], [1, 2], [-1, -2], [1, -2]],
            [[1, 2], [-1, -2], [3]],
        )]
        got = [support_outcome(support_graph, s) for s in sentences]
        assert got == [support_outcome(support_graph_by_multigraph, s) for s in sentences]
        assert [g[0] for g in got] == [NotNontrivial] * 2 + [UnitClausePresent] * 2 + [
            MultiEdgePresent] * 2 + [UnitClausePresent]
        assert got[5][1] == "edge (1, 2) has multiplicity 3"

    def test_random_sentences(self):
        rng = random.Random(20261104)
        sentences = [random_cnf(rng) for _ in range(2000)]
        got = [support_outcome(support_graph, s) for s in sentences]
        assert got == [support_outcome(support_graph_by_multigraph, s) for s in sentences]
        kinds = {g if isinstance(g, str) else g[0] for g in got}
        assert {UnitClausePresent, MultiEdgePresent} <= kinds
        assert sum(isinstance(g, str) for g in got) > 50


class TestCycleRank:
    def test_examples(self):
        assert cycle_rank(fixture_graph("c3")) == 1
        assert cycle_rank(fixture_graph("k4")) == 3
        assert cycle_rank(fixture_graph("butterfly")) == 2

    def test_per_component(self):
        two_triangles = SimpleGraph.of([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        assert [cycle_rank(c) for c in connected_components(two_triangles)] == [1, 1]
        assert cycle_rank(two_triangles) == 2

    def test_subdivision_preserves_rank(self):
        rng = random.Random(31)
        for _ in range(120):
            g = random_graph(rng)
            if not g.edges:
                continue
            e = rng.choice(g.sorted_edges())
            assert cycle_rank(subdivide_edge(g, e)) == cycle_rank(g)

    def test_contraction_preserves_rank(self):
        rng = random.Random(32)
        seen = 0
        for _ in range(300):
            g = random_graph(rng)
            usable = [
                (u, v)
                for u, v in g.sorted_edges()
                if not set(g.neighbors(u)) & set(g.neighbors(v))
            ]
            if not usable:
                continue
            seen += 1
            assert cycle_rank(contract_edge(g, rng.choice(usable))) == cycle_rank(g)
        assert seen > 50


class TestTwoCore:
    def test_tree_empties(self):
        path = SimpleGraph.of([(1, 2), (2, 3), (3, 4)])
        core = two_core(path)
        assert not core.vertices and not core.edges

    def test_pendant_pruned(self):
        butterfly = fixture_graph("butterfly")
        with_tail = SimpleGraph.of(sorted(butterfly.edges) + [(5, 6), (6, 7)])
        assert two_core(with_tail) == butterfly

    def test_cycle_is_fixpoint(self):
        c3 = fixture_graph("c3")
        assert two_core(c3) == c3

    def test_idempotent_and_contained(self):
        rng = random.Random(33)
        for _ in range(150):
            g = random_graph(rng)
            core = two_core(g)
            assert two_core(core) == core
            assert is_subgraph(core, g)
            assert all(core.degree(v) >= 2 for v in core.vertices)

    def test_matches_networkx_k_core(self):
        # the peel decide_support and census read, against an independent one
        rng = random.Random(34)
        graphs = [random_graph(rng, 9) for _ in range(300)]
        graphs += [scattered_graph(rng) for _ in range(20)]
        for g in graphs:
            assert two_core(g) == two_core_by_networkx(g), g
            degree = g._core_degrees()
            core = two_core_by_networkx(g)
            assert degree == {v: core.degree(v) if v in core.vertices else 0 for v in g.vertices}


def fresh(g: SimpleGraph) -> SimpleGraph:
    """An equal graph object with nothing computed on it yet."""
    return SimpleGraph(g.vertices, g.edges)


class TestPeelCache:
    """The leaf peel runs once per graph object and is kept on it."""

    def graphs(self) -> list[SimpleGraph]:
        rng = random.Random(20261105)
        graphs = [fixture_graph(name) for name in ("butterfly", "bowtie", "k4", "book", "hills:2")]
        graphs += [hung(rng, sorted(g.edges), len(g.edges) + 3) for g in graphs[:4]]
        graphs += [random_graph(rng, 9) for _ in range(60)] + [scattered_graph(rng) for _ in range(10)]
        return graphs

    def test_one_dict_equal_to_a_fresh_peel(self):
        for g in self.graphs():
            degree = g._core_degrees()
            assert g._core_degrees() is degree and g._core_degrees() is degree
            assert degree == fresh(g)._core_degrees()

    def test_equality_hash_repr_and_pickle_unchanged(self):
        for g in self.graphs():
            twin = fresh(g)
            before = (hash(g), repr(g))
            g._core_degrees()
            assert g == twin and twin == g and {g: 1}[twin] == 1
            assert (hash(g), repr(g)) == before == (hash(twin), repr(twin))
            back = pickle.loads(pickle.dumps(g))
            assert back == g and (hash(back), repr(back)) == before
            assert back._core_degrees() == g._core_degrees()

    def test_census_verdict_and_core_agree_in_any_call_order(self):
        calls = {"census": census, "decide_support": decide_support, "two_core": two_core}
        for g in self.graphs():
            if len(g.edges) > 10:
                continue
            alone = {name: call(fresh(g)) for name, call in calls.items()}
            for order in itertools.permutations(calls):
                shared = fresh(g)
                assert {name: calls[name](shared) for name in order} == alone, (g, order)


class TestPeelAtScale:
    """The leaf peel on 1500-vertex graphs with trees hung on their 2-cores."""

    def test_matches_networkx_and_decides_as_built(self):
        rng = random.Random(20261201)
        built = {"tree": Reason.FOREST, "cycle": Reason.UNICYCLIC, "theta": Reason.THETA_CORE}
        graphs = [(hung_core_graph(rng, core, 1500), why) for core, why in built.items() for _ in range(3)]
        graphs += [(hung_core_graph(rng, "figure-eight", 1500), Pattern.BUTTERFLY) for _ in range(2)]
        for g, why in graphs:
            degree = g._core_degrees()
            core = two_core_by_networkx(g)
            assert degree == {v: core.degree(v) if v in core.vertices else 0 for v in g.vertices}
            assert list(degree) == list(fresh(g)._core_degrees()) == list(g.vertices)
            verdict = decide_support(g, cap=len(g.vertices))
            assert (verdict.pattern if verdict.supports_unsat else verdict.reason) == why


class TestCutVertices:
    def test_examples(self):
        assert cut_vertices(fixture_graph("butterfly")) == {3}
        assert cut_vertices(fixture_graph("k4")) == set()
        assert cut_vertices(SimpleGraph.of([(1, 2), (2, 3)])) == {2}
        assert cut_vertices(fixture_graph("bowtie")) == {3, 4}

    def _brute(self, g: SimpleGraph) -> set[int]:
        base = len(connected_components(g))
        out = set()
        for v in g.vertices:
            rest = SimpleGraph(g.vertices - {v}, frozenset(e for e in g.edges if v not in e))
            if len(connected_components(rest)) > base:
                out.add(v)
        return out

    def test_matches_brute_force_and_networkx(self):
        rng = random.Random(34)
        for _ in range(200):
            g = random_graph(rng)
            got = cut_vertices(g)
            assert got == self._brute(g)
            assert got == set(nx.articulation_points(to_nx(g)))


class TestSubdivideContract:
    def test_subdivide_triangle_gives_square(self):
        c4 = subdivide_edge(fixture_graph("c3"), (1, 2))
        assert nx.is_isomorphic(to_nx(c4), nx.cycle_graph(4))

    def test_subdivide_single_edge(self):
        g = subdivide_edge(SimpleGraph.of([(1, 2)]), (1, 2))
        assert g == SimpleGraph.of([(1, 3), (2, 3)])

    def test_counts_shift(self):
        g = fixture_graph("bowtie")
        h = subdivide_edge(g, (3, 4))
        assert len(h.vertices) == len(g.vertices) + 1
        assert len(h.edges) == len(g.edges) + 1

    def test_subdivide_missing_edge(self):
        with pytest.raises(EdgeAbsent):
            subdivide_edge(fixture_graph("c3"), (1, 4))

    def test_contract_path_edge(self):
        g = contract_edge(SimpleGraph.of([(1, 2), (2, 3)]), (1, 2))
        assert g == SimpleGraph.of([(3, 4)])

    def test_contract_bowtie_bridge_gives_butterfly(self):
        contracted = contract_edge(fixture_graph("bowtie"), (3, 4))
        assert nx.is_isomorphic(to_nx(contracted), to_nx(fixture_graph("butterfly")))

    def test_contract_triangle_edge_rejected(self):
        with pytest.raises(EdgeInTriangle):
            contract_edge(fixture_graph("c3"), (1, 2))

    def test_contract_missing_edge(self):
        with pytest.raises(EdgeAbsent):
            contract_edge(fixture_graph("c3"), (1, 5))

    def test_subdivide_then_contract_restores(self):
        rng = random.Random(35)
        for _ in range(100):
            g = random_graph(rng)
            if not g.edges:
                continue
            u, v = rng.choice(g.sorted_edges())
            h = subdivide_edge(g, (u, v))
            w = max(h.vertices)
            for end in (u, v):
                if set(h.neighbors(end)) & set(h.neighbors(w)):
                    continue  # remaining half of a triangle; contraction is barred
                back = contract_edge(h, edge(end, w))
                assert nx.is_isomorphic(to_nx(back), to_nx(g))

    def test_smooth_vertex(self):
        path = SimpleGraph.of([(1, 2), (2, 3)])
        assert smooth_vertex(path, 2) == SimpleGraph.of([(1, 3)])
        with pytest.raises(ValueError):
            smooth_vertex(fixture_graph("c3"), 1)  # neighbours already adjacent


class TestComponents:
    def test_two_triangles(self):
        g = SimpleGraph.of([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        comps = connected_components(g)
        assert [sorted(c.vertices) for c in comps] == [[1, 2, 3], [4, 5, 6]]

    def test_connected_graph_single(self):
        assert len(connected_components(fixture_graph("bowtie"))) == 1

    def test_isolated_vertices(self):
        g = SimpleGraph.of([], isolated=[1, 2, 3])
        assert len(connected_components(g)) == 3

    def test_connected_graph_is_its_own_component(self):
        g = fixture_graph("hills:3")
        (comp,) = connected_components(g)
        assert comp is g
        assert connected_components(SimpleGraph.of([])) == []

    def test_partition(self):
        rng = random.Random(36)
        for _ in range(100):
            g = random_graph(rng)
            comps = connected_components(g)
            assert sorted(v for c in comps for v in c.vertices) == sorted(g.vertices)
            assert sum(len(c.edges) for c in comps) == len(g.edges)


class TestLinearTraversals:
    """The component labelling and the one-iterator lowlink DFS against the
    quadratic implementations they replaced, kept in corpus_util as oracles."""

    @staticmethod
    def assert_matches_oracles(g: SimpleGraph) -> None:
        assert connected_components(g) == connected_components_by_edge_scan(g)
        assert cycle_rank(g) == cycle_rank_by_components(g)
        assert cut_vertices(g) == cut_vertices_by_child_lists(g)

    def test_acceptance_corpus(self):
        for g in acceptance_corpus():
            self.assert_matches_oracles(g)

    def test_many_components_and_high_degree(self):
        rng = random.Random(20261018)
        graphs = [scattered_graph(rng) for _ in range(120)] + [hub_graph(rng) for _ in range(120)]
        for g in graphs:
            assert (
                len(connected_components_by_edge_scan(g)) >= 10
                or max(g.degree(v) for v in g.vertices) >= 50
            )
            self.assert_matches_oracles(g)

    def test_star_cut_vertices_in_linear_time(self):
        star = SimpleGraph.of([(1, k) for k in range(2, 10002)])
        result, seconds = timed(lambda: cut_vertices(star))
        assert result == {1}
        assert seconds < 1.0

    def test_disjoint_edges_in_linear_time(self):
        matching = SimpleGraph.of([(2 * i + 1, 2 * i + 2) for i in range(10000)])
        comps, seconds = timed(lambda: connected_components(matching))
        assert [sorted(c.edges) for c in comps[:2]] == [[(1, 2)], [(3, 4)]]
        assert len(comps) == 10000
        assert seconds < 1.0
        rank, seconds = timed(lambda: cycle_rank(matching))
        assert rank == 0
        assert seconds < 1.0


class TestBlocks:
    """_blocks against networkx's biconnected components."""

    @staticmethod
    def assert_matches_networkx(g: SimpleGraph) -> None:
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(g.vertices)
        expected = {
            frozenset(edge(*e) for e in b) for b in nx.biconnected_component_edges(nxg)
        }
        blocks = _blocks(g)
        assert sum(map(len, blocks)) == len(g.edges)
        assert {frozenset(edge(*e) for e in b) for b in blocks} == expected

    def test_acceptance_corpus(self):
        for g in acceptance_corpus():
            self.assert_matches_networkx(g)

    def test_random_and_structured_graphs(self):
        rng = random.Random(20261021)
        graphs = [random_graph(rng) for _ in range(100)]
        graphs += [scattered_graph(rng) for _ in range(30)] + [hub_graph(rng) for _ in range(30)]
        graphs += [fixture_graph(f"hills:{k}") for k in (1, 5)] + [fixture_graph("bowtie")]
        for g in graphs:
            self.assert_matches_networkx(g)

    def test_long_path_in_linear_time(self):
        path = SimpleGraph.of([(i, i + 1) for i in range(1, 10001)])
        blocks, seconds = timed(lambda: _blocks(path))
        assert len(blocks) == 10000
        assert seconds < 1.0


class TestTrustedConstruction:
    """Graphs built internally without validation equal validated ones."""

    def test_components_and_two_core(self):
        rng = random.Random(20261022)
        for _ in range(100):
            g = scattered_graph(rng)
            for h in connected_components(g) + [two_core(g)]:
                checked = SimpleGraph(h.vertices, h.edges)
                assert h == checked and hash(h) == hash(checked)
                assert h.adjacency == checked.adjacency


class TestIsSubgraph:
    def test_examples(self):
        c3 = fixture_graph("c3")
        k4 = fixture_graph("k4")
        assert is_subgraph(c3, k4)
        assert not is_subgraph(k4, c3)
        assert is_subgraph(k4, k4)

    def test_labelled_not_isomorphic(self):
        shifted = SimpleGraph.of([(2, 3), (2, 4), (3, 4)])
        assert not is_subgraph(shifted, fixture_graph("c3"))


def assert_parsers_agree(text: str) -> None:
    """parse_edgelist gives the line parser's graph, or its error type and message."""
    try:
        expected = _parse_edgelist_lines(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_edgelist(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert parse_edgelist(text) == expected


class TestEdgeListFormat:
    def test_round_trip(self):
        g = SimpleGraph.of([(1, 2), (2, 5)], isolated=[9])
        assert parse_edgelist(edgelist_to_text(g)) == g

    @pytest.mark.parametrize("isolated", [[0], [-3], [0, -3]])
    def test_vertex_ids_below_one_rejected(self, isolated):
        with pytest.raises(ValueError, match="vertex ids are positive integers"):
            SimpleGraph.of([(1, 2)], isolated=isolated)
        with pytest.raises(ValueError, match="vertex ids are positive integers"):
            SimpleGraph(frozenset(isolated), frozenset())

    def test_parse_forms(self):
        text = "# demo\nn 3\nv 7\n1 2\n2 3  # inline comment\n"
        g = parse_edgelist(text)
        assert g.vertices == {1, 2, 3, 7}
        assert g.edges == {(1, 2), (2, 3)}

    def test_fixture_round_trip(self):
        for name in ["butterfly", "bowtie", "k4", "book", "square-butterfly"]:
            g = fixture_graph(name)
            assert parse_edgelist(edgelist_to_text(g)) == g

    @pytest.mark.parametrize("text", ["1\n", "1 2 3\n", "a b\n", "n x\n", "0 1\n", "1 1\n"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_edgelist(text)
        assert_parsers_agree(text)


    @pytest.mark.parametrize("text, line", [
        ("1_0 2\n", 1), ("1 2\nn 1_0\n", 2), ("v \u0663\n", 1), ("1 2\n3 \uff14\n", 2),
    ])
    def test_underscores_and_other_digits_rejected(self, text, line):
        # int() reads them, so 1_0 2 was the edge 2-10
        with pytest.raises(ParseError) as err:
            parse_edgelist(text)
        assert err.value.line == line and err.value.reason.startswith("bad edge-list line")
        assert_parsers_agree(text)

    def test_other_whitespace_still_separates(self):
        assert parse_edgelist("1\xa02\n2 3 # \u0663\n") == SimpleGraph.of([(1, 2), (2, 3)])

    def test_vertex_count_above_the_limit_rejected(self):
        assert parse_edgelist("n 3\nn 0\n") == SimpleGraph.of([], isolated=[1, 2, 3])
        with pytest.raises(ParseError) as err:
            parse_edgelist(f"1 2\nn {MAX_VERTEX_COUNT + 1}\n")
        assert str(err.value) == f"line 2: vertex count {MAX_VERTEX_COUNT + 1} exceeds {MAX_VERTEX_COUNT}"


class TestEdgeListFastPath:
    """The one-pass parser against the line parser it falls back to."""

    @pytest.mark.parametrize("text", [
        "1 2\r\n2 3\r\n", "1 2\r\n\r\n2 3", "\n\n1 2\n\n", "1 2\n2 3", " \t1\t 2 \t\n",
        "", "\n", "  \n\t\n", "1 2\r3 4\n", "1 2\r", "1 2\x0c\n", "1 2\x0b3 4\n",
        "+1 2\n", "1 +2\n", "0 2\n", "2 0\n", "3 3\n", "1 2\n4 4\n", "007 8\n",
        "1 2 3\n", "1 2 3 4\n", "1 2\t3 4 5 6\r\n", "1\n2 3\n", "2 3\n4\n", "1 2\n3",
        "-1 2\n", "1 \u0663\n", "\u0661 2\n",
        "1 2 # c\n", "# only\n", "n 3\n1 2\n", "v 4\n1 2\n", "1 2\nn -1\n",
        "1" * 5000 + " 2\n", "2 1\n1 2\n",
    ])
    def test_edge_cases(self, text):
        assert_parsers_agree(text)

    def test_round_trip_corpus(self):
        rng = random.Random(20261023)
        graphs = [fixture_graph(name) for name in ["butterfly", "bowtie", "k4", "book", "hills:5"]]
        graphs += [random_graph(rng) for _ in range(100)]
        graphs += [scattered_graph(rng) for _ in range(20)]
        for g in graphs:
            text = edgelist_to_text(g)
            assert_parsers_agree(text)
            assert_parsers_agree(text.replace("\n", "\r\n"))
            assert_parsers_agree(text.rstrip("\n"))
            assert parse_edgelist(text) == g

    def test_edge_orientations(self):
        # canonical lines take the zip path, any reversed line the canonicalising one
        rng = random.Random(20261025)
        for _ in range(100):
            g = scattered_graph(rng)
            edges = g.sorted_edges()
            one = rng.randrange(len(edges))
            for flip in (0.0, 1.0, 0.5, None):
                if flip is None:  # one reversed line
                    pairs = [(v, u) if i == one else (u, v) for i, (u, v) in enumerate(edges)]
                else:
                    pairs = [(v, u) if rng.random() < flip else (u, v) for u, v in edges]
                text = "".join(f"{a} {b}\n" for a, b in pairs)
                assert_parsers_agree(text)
                assert_parsers_agree(text + text[: len(text) // 2])
                assert parse_edgelist(text).edges == g.edges

    def test_canonical_text_skips_the_scan(self, monkeypatch):
        def refuse(text):
            raise AssertionError(f"line parser ran on {text[:40]!r}")

        rng = random.Random(20261202)
        graphs = [hung_core_graph(rng, "tree", 1500) for _ in range(3)]
        for _ in range(3):  # random graphs without isolated vertices
            graphs.append(SimpleGraph.of({edge(*rng.sample(range(1, 1501), 2)) for _ in range(2000)}))
        texts = []
        for g in graphs:
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.sorted_edges()]
            texts += [edgelist_to_text(g), "".join(f"{a} {b}\n" for a, b in pairs)]
        bench = [text for seed in (1, 2, 3) for workload in ("analyze", "census")
                 for _, text in perfbench_texts(workload, seed)]
        assert all(map(is_canonical_by_scans, bench))
        expected = [_parse_edgelist_lines(text) for text in texts + bench]
        monkeypatch.setattr(graph_module, "_parse_edgelist_lines", refuse)
        assert [parse_edgelist(text) for text in texts + bench] == expected
        assert expected[:len(texts):2] == graphs

    @pytest.mark.parametrize("text, canonical", [
        (" 1 2\n", False), ("1 2 \n", False), ("1  2\n", False), ("1 2\n ", False),
        ("12\n", False), ("1 2", False), ("", False), ("\n", False),
        ("007 8\n", True), ("0 1\n", True), ("2 2\n", True),
    ])
    def test_canonical_check_named_cases(self, text, canonical):
        assert is_canonical_by_scans(text) is canonical
        assert (graph_module._canonical_ids(text) is not None) is canonical
        assert_parsers_agree(text)

    def test_canonical_check_is_sound(self):
        # the token count accepts exactly what the substring scans accepted
        rng = random.Random(20261203)
        damage = ["", *"1209 \n\t\r#v-+_\u0663"]
        pieces = damage[1:] + ["12", "90", " ", "1 2\n", "9 10\n"]
        texts = ["".join(rng.choices(pieces, k=rng.randint(0, 8))) for _ in range(20000)]
        for _ in range(10000):  # canonical lines with one character inserted, replaced or deleted
            text = "".join(f"{rng.randint(1, 99)} {rng.randint(1, 99)}\n" for _ in range(rng.randint(1, 4)))
            at = rng.randrange(len(text) + 1)
            texts.append(text[:at] + rng.choice(damage) + text[at + rng.randint(0, 1):])
        accepted = 0
        for text in texts:
            canonical = graph_module._canonical_ids(text) is not None
            assert canonical is is_canonical_by_scans(text), text
            accepted += canonical
            assert_parsers_agree(text)
        assert accepted > 1500, accepted

    def test_seeded_mutations(self):
        # plain edge lists with one line damaged, so that most take the line parser
        rng = random.Random(20261024)
        damage = ["", "0", "+1", "1 1", "3", "1 2 3", "1 2 3 4", "\r", "x", "#", "v 9", " \t "]
        for _ in range(300):
            lines = [f"{rng.randint(1, 9)} {rng.randint(1, 9)}" for _ in range(rng.randint(0, 6))]
            lines.insert(rng.randint(0, len(lines)), rng.choice(damage))
            assert_parsers_agree(rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"]))


class TestDot:
    def test_plain_output(self):
        dot = to_dot(fixture_graph("c3"))
        assert dot.startswith("graph {")
        assert "1 -- 2;" in dot and "2 -- 3;" in dot

    def test_highlighted_edges(self):
        dot = to_dot(fixture_graph("c3"), highlight_edges=[(2, 1)])
        assert "1 -- 2 [color=red];" in dot
