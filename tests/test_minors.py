import random
import time

import pytest

from corpus_util import (
    FULL_CORPUS,
    acceptance_corpus,
    atlas_graphs,
    ci_subsample,
    decide_support_by_components,
    decide_support_by_search,
    find_topological_minor_by_host_degree,
    find_topological_minor_unpruned,
    has_book_by_flow,
    has_butterfly_by_cycles,
    hung,
    hung_core_graph,
    kernel_by_networkx,
    ladder,
    perfbench_analyze_graphs,
    random_sparse_graph,
    random_subdivision,
    simple_paths_recursive,
    sparse_graph_stream,
    strip,
    two_core_by_networkx,
    verify_embedding_by_adjacency,
)
from satminors import (
    Embedding,
    Pattern,
    Reason,
    SimpleGraph,
    Verdict,
    connected_components,
    cut_vertices,
    cycle_rank,
    decide_support,
    edge,
    find_topological_minor,
    fixture_graph,
    pattern_graph,
    subdivide_edge,
    supports_unsat_bruteforce,
    synthesize_witness,
    two_core,
    verify_embedding,
)
from satminors import minors
from satminors.graph import _component_of
from satminors.minors import (
    PATTERN_ORDER,
    HostTooLarge,
    _core_branch,
    _kernel,
    _plan,
    _rank_three_pattern,
    _route_paths,
)


class TestPatternGraphs:
    def test_shapes(self):
        sizes = {
            Pattern.BUTTERFLY: (5, 6),
            Pattern.BOWTIE: (6, 7),
            Pattern.K4: (4, 6),
            Pattern.BOOK: (5, 7),
        }
        for pattern, (nv, ne) in sizes.items():
            pg = pattern_graph(pattern)
            assert (len(pg.vertices), len(pg.edges)) == (nv, ne)

    def test_match_fixtures(self):
        assert pattern_graph(Pattern.BUTTERFLY) == fixture_graph("butterfly")
        assert pattern_graph(Pattern.BOWTIE) == fixture_graph("bowtie")
        assert pattern_graph(Pattern.K4) == fixture_graph("k4")
        assert pattern_graph(Pattern.BOOK) == fixture_graph("book")


class TestFindTopologicalMinor:
    def test_pattern_embeds_in_itself(self):
        for pattern in PATTERN_ORDER:
            pg = pattern_graph(pattern)
            emb = find_topological_minor(pg, pattern)
            assert emb is not None and verify_embedding(pg, pattern, emb)

    def test_fully_subdivided_butterfly(self):
        host = fixture_graph("butterfly")
        for e in list(host.sorted_edges()):
            host = subdivide_edge(host, e)
        emb = find_topological_minor(host, Pattern.BUTTERFLY)
        assert emb is not None and verify_embedding(host, Pattern.BUTTERFLY, emb)
        assert all(len(p) == 3 for p in emb.paths.values())

    def test_k4_not_in_k4_minus_e(self):
        assert find_topological_minor(fixture_graph("k4-e"), Pattern.K4) is None

    def test_butterfly_in_three_hills(self):
        host = fixture_graph("hills:3")
        emb = find_topological_minor(host, Pattern.BUTTERFLY)
        assert emb is not None and verify_embedding(host, Pattern.BUTTERFLY, emb)

    def test_butterfly_not_in_bowtie(self):
        assert find_topological_minor(fixture_graph("bowtie"), Pattern.BUTTERFLY) is None

    def test_disconnected_host(self):
        g = fixture_graph("butterfly")
        host = SimpleGraph(g.vertices | {10, 11}, g.edges | {(10, 11)})
        emb = find_topological_minor(host, Pattern.BUTTERFLY)
        assert emb is not None and verify_embedding(host, Pattern.BUTTERFLY, emb)

    def test_host_cap(self):
        big = SimpleGraph.of([(i, i + 1) for i in range(1, 70)])
        with pytest.raises(HostTooLarge):
            find_topological_minor(big, Pattern.K4)
        assert find_topological_minor(big, Pattern.K4, cap=100) is None

    def test_deterministic(self):
        host = fixture_graph("hills:4")
        a = find_topological_minor(host, Pattern.BUTTERFLY)
        b = find_topological_minor(host, Pattern.BUTTERFLY)
        assert a == b

    def test_iterative_paths_match_recursive_oracle(self, monkeypatch):
        corpus = acceptance_corpus()
        found = [[find_topological_minor(g, p) for p in PATTERN_ORDER] for g in corpus]
        monkeypatch.setattr(minors, "_simple_paths", simple_paths_recursive)
        expected = [[find_topological_minor(g, p) for p in PATTERN_ORDER] for g in corpus]
        assert found == expected
        assert sum(e is not None for row in found for e in row) > 100


class TestVerifyEmbedding:
    def _embedding(self):
        host = fixture_graph("hills:3")
        emb = find_topological_minor(host, Pattern.BUTTERFLY)
        assert emb is not None
        return host, emb

    def test_one_pattern_graph_per_pattern(self, monkeypatch):
        built = []
        build = minors.pattern_graph

        def counted(p):
            built.append(p)
            return build(p)

        monkeypatch.setattr(minors, "pattern_graph", counted)
        host, emb = self._embedding()
        for _ in range(5):
            assert verify_embedding(host, Pattern.BUTTERFLY, emb)
            assert not verify_embedding(host, Pattern.BOWTIE, emb)
        assert built.count(Pattern.BUTTERFLY) <= 1 and built.count(Pattern.BOWTIE) <= 1

    def test_round_trip(self):
        host, emb = self._embedding()
        assert verify_embedding(host, Pattern.BUTTERFLY, emb)

    def test_noninjective_branch_map_rejected(self):
        host, emb = self._embedding()
        bm = dict(emb.branch_map)
        bm[1] = bm[2]
        assert not verify_embedding(host, Pattern.BUTTERFLY, Embedding(bm, emb.paths))

    def test_missing_path_rejected(self):
        host, emb = self._embedding()
        paths = dict(emb.paths)
        paths.pop((1, 2))
        assert not verify_embedding(host, Pattern.BUTTERFLY, Embedding(emb.branch_map, paths))

    def test_fake_host_edge_rejected(self):
        host, emb = self._embedding()
        paths = dict(emb.paths)
        (u, v) = (1, 2)
        a, b = paths[(u, v)][0], paths[(u, v)][-1]
        paths[(u, v)] = (a, 999, b)
        assert not verify_embedding(host, Pattern.BUTTERFLY, Embedding(emb.branch_map, paths))

    @pytest.mark.parametrize("bad", [0, -7, 999])
    def test_path_through_an_id_outside_the_host_rejected(self, bad):
        # 0 and negative ids are no vertex ids at all: the check answers
        # False for them as for an absent id, and raises nothing
        host, emb = self._embedding()
        paths = dict(emb.paths)
        paths[(1, 2)] = (paths[(1, 2)][0], bad, paths[(1, 2)][-1])
        assert not verify_embedding(host, Pattern.BUTTERFLY, Embedding(emb.branch_map, paths))

    def test_overlapping_internal_paths_rejected(self):
        # K4 plus a spare vertex adjacent to 1, 2, and 3
        host = SimpleGraph.of(
            sorted(fixture_graph("k4").edges) + [(1, 5), (2, 5), (3, 5)]
        )
        branch = {1: 1, 2: 2, 3: 3, 4: 4}
        paths = {e: (e[0], e[1]) for e in pattern_graph(Pattern.K4).sorted_edges()}
        good = Embedding(branch, dict(paths))
        assert verify_embedding(host, Pattern.K4, good)
        # route two pattern edges through the same interior vertex: every hop
        # is a real host edge, only internal disjointness is violated
        paths[(1, 2)] = (1, 5, 2)
        paths[(1, 3)] = (1, 5, 3)
        assert not verify_embedding(host, Pattern.K4, Embedding(branch, paths))


class TestDecideSupport:
    def test_cycles(self):
        verdict = decide_support(fixture_graph("c3"))
        assert not verdict.supports_unsat and verdict.reason is Reason.UNICYCLIC
        verdict = decide_support(fixture_graph("cn:7"))
        assert verdict.reason is Reason.UNICYCLIC

    def test_trees_and_edgeless(self):
        assert decide_support(SimpleGraph.of([(1, 2), (2, 3)])).reason is Reason.FOREST
        assert decide_support(SimpleGraph.of([], isolated=[1])).reason is Reason.FOREST

    def test_theta_graphs(self):
        assert decide_support(fixture_graph("k4-e")).reason is Reason.THETA_CORE
        assert decide_support(fixture_graph("square-butterfly")).reason is Reason.THETA_CORE

    def test_positive_fixtures(self):
        expectations = {
            "butterfly": Pattern.BUTTERFLY,
            "bowtie": Pattern.BOWTIE,
            "k4": Pattern.K4,
            "book": Pattern.BOOK,
        }
        for name, pattern in expectations.items():
            verdict = decide_support(fixture_graph(name))
            assert verdict.supports_unsat and verdict.pattern is pattern
            assert verify_embedding(fixture_graph(name), pattern, verdict.embedding)

    def test_rank_two_with_tail(self):
        g = fixture_graph("butterfly")
        g = SimpleGraph(g.vertices | {8, 9}, g.edges | {(5, 8), (8, 9)})
        verdict = decide_support(g)
        assert verdict.supports_unsat and verdict.pattern is Pattern.BUTTERFLY

    def test_disconnected_reason_precedence(self):
        theta_plus_cycle = SimpleGraph.of(
            sorted(fixture_graph("k4-e").edges) + [(5, 6), (5, 7), (6, 7)]
        )
        assert decide_support(theta_plus_cycle).reason is Reason.THETA_CORE
        cycle_plus_tree = SimpleGraph.of([(1, 2), (1, 3), (2, 3), (4, 5)])
        assert decide_support(cycle_plus_tree).reason is Reason.UNICYCLIC

    def test_disconnected_positive_component(self):
        g = fixture_graph("book")
        shifted = SimpleGraph.of([(u + 10, v + 10) for u, v in g.edges])
        host = SimpleGraph.of(sorted(shifted.edges) + [(1, 2), (1, 3), (2, 3)])
        verdict = decide_support(host)
        assert verdict.supports_unsat and verdict.pattern is Pattern.BOOK
        assert verify_embedding(host, Pattern.BOOK, verdict.embedding)

    def test_two_triangles_disjoint_not_supporting(self):
        g = SimpleGraph.of([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        verdict = decide_support(g)
        assert not verdict.supports_unsat and verdict.reason is Reason.UNICYCLIC


class TestDecideSupportScaling:
    def test_disjoint_edges(self):
        matching = SimpleGraph.of([(2 * i + 1, 2 * i + 2) for i in range(10000)])
        start = time.perf_counter()
        verdict = decide_support(matching)
        assert time.perf_counter() - start < 1.0
        assert verdict == Verdict(False, reason=Reason.FOREST)

    def test_rank_two_component_skips_rank_three_patterns(self):
        # butterfly with a 30-vertex binary tree (heap order, ids 6..35) hung off vertex 2
        tree = [(5 + i, 5 + c) for i in range(1, 31) for c in (2 * i, 2 * i + 1) if c <= 30]
        g = SimpleGraph.of(sorted(fixture_graph("butterfly").edges) + [(2, 6)] + tree)
        assert (len(g.vertices), len(g.edges) - len(g.vertices) + 1) == (35, 2)
        start = time.perf_counter()
        verdict = decide_support(g)
        assert time.perf_counter() - start < 0.5
        assert verdict.pattern is Pattern.BUTTERFLY
        assert verdict.embedding == find_topological_minor(g, Pattern.BUTTERFLY)

    def test_strip_decided_without_a_flow(self):
        g = strip(64)
        start = time.perf_counter()
        verdict = decide_support(g)
        assert time.perf_counter() - start < 0.05
        assert verdict.pattern is Pattern.BUTTERFLY
        assert verdict.embedding == find_topological_minor(g, Pattern.BUTTERFLY)


def figure_eight(k: int) -> SimpleGraph:
    """Two k-cycles sharing vertex 1, labelled around each cycle in turn."""
    a = [1, *range(2, k + 1)]
    b = [1, *range(k + 1, 2 * k)]
    return SimpleGraph.of(list(zip(a, a[1:] + a[:1])) + list(zip(b, b[1:] + b[:1])))


def assert_matches_unpruned(graphs) -> int:
    """The pruned search returns the unpruned oracle's result for every pattern; count finds."""
    found = [[find_topological_minor(g, p) for p in PATTERN_ORDER] for g in graphs]
    expected = [[find_topological_minor_unpruned(g, p) for p in PATTERN_ORDER] for g in graphs]
    assert found == expected
    return sum(e is not None for row in found for e in row)


class TestPrunedSearch:
    def test_matches_unpruned_oracle_on_the_acceptance_corpus(self):
        assert assert_matches_unpruned(acceptance_corpus()) > 100

    def test_matches_unpruned_oracle_on_hills(self):
        assert assert_matches_unpruned([fixture_graph(f"hills:{k}") for k in range(2, 6)]) == 7

    def test_matches_unpruned_oracle_on_random_sparse_graphs(self):
        # a random tree on 8-12 vertices plus 2-4 chords, every size and chord count alike
        rng = random.Random(20261018)
        graphs = [random_sparse_graph(rng, 8 + k % 5, 2 + k % 3) for k in range(100)]
        assert assert_matches_unpruned(graphs) > 100

    def test_matches_unpruned_oracle_on_figure_eights(self):
        # the search analyze runs longest on: the butterfly in two 16- or 18-cycles
        assert assert_matches_unpruned([figure_eight(16), figure_eight(18)]) == 2

    def test_matches_unpruned_oracle_on_subdivided_k4_and_books(self):
        # K4 and the book with 30 vertices in all, subdivided at random: the
        # searches analyze runs on them.  The butterfly and bowtie are left
        # out, as the oracle takes minutes to rule them out at this size
        rng = random.Random(20261019)
        graphs = [random_subdivision(rng, sorted(fixture_graph(name).edges), 30)
                  for name in ("k4", "book") for _ in range(4)]
        patterns = (Pattern.K4, Pattern.BOOK)
        found = [[find_topological_minor(g, p) for p in patterns] for g in graphs]
        assert found == [[find_topological_minor_unpruned(g, p) for p in patterns] for g in graphs]
        # each holds its own pattern and not the other
        held = [[e is not None for e in row] for row in found]
        assert held == [[True, False]] * 4 + [[False, True]] * 4

    def test_routes_the_edge_with_fewest_free_neighbours_first(self):
        # routing the butterfly here takes subdivided paths, so the free
        # degrees of its branch images fall as paths are placed, and the
        # order in which the remaining edges are routed follows them
        g = SimpleGraph.of([
            (1, 2), (1, 4), (1, 6), (1, 9), (2, 5), (2, 6), (2, 10), (3, 5), (3, 6),
            (3, 8), (3, 10), (3, 11), (4, 8), (5, 12), (6, 7), (7, 9), (7, 11), (8, 12),
        ])
        assert assert_matches_unpruned([g]) == 4

    def test_prefix_check_blocks_placed_branch_images(self, monkeypatch):
        # once the butterfly's triangle fills one cycle of a figure-eight, a
        # fourth branch vertex on that cycle cuts it and its check fails; the
        # search routes the triangle once, each of the k - 2 placements of
        # the fourth vertex, and each of the k - 2 placements of the fifth,
        # whose routing is the embedding
        k = 12
        routed = []
        route_paths = minors._route_paths

        def counted(host, edges, branch):
            routed.append(len(edges))
            return route_paths(host, edges, branch)

        monkeypatch.setattr(minors, "_route_paths", counted)
        assert find_topological_minor(figure_eight(k), Pattern.BUTTERFLY) is not None
        assert len(routed) == 2 * k - 3

    def test_hills_six_decided_quickly(self):
        g = fixture_graph("hills:6")
        start = time.perf_counter()
        verdict = decide_support(g)
        assert time.perf_counter() - start < 0.3
        assert verdict.pattern is Pattern.BUTTERFLY

    def test_figure_eight_witness_quickly(self):
        g = figure_eight(32)
        start = time.perf_counter()
        witness = synthesize_witness(g)
        assert time.perf_counter() - start < 0.05
        assert witness is not None


def assert_matches_host_degree_rule(graphs) -> int:
    """The search returns the host-degree reference's result, value and repr,
    for every pattern; count finds."""
    found = [[find_topological_minor(g, p) for p in PATTERN_ORDER] for g in graphs]
    expected = [[find_topological_minor_by_host_degree(g, p) for p in PATTERN_ORDER]
                for g in graphs]
    assert found == expected
    assert [list(map(repr, row)) for row in found] == [list(map(repr, row)) for row in expected]
    return sum(e is not None for row in found for e in row)


class TestCoreCandidates:
    """Branch images come from the 2-core, and the search finds what it found
    when every host vertex of high enough degree was a candidate."""

    def test_acceptance_corpus(self):
        assert assert_matches_host_degree_rule(acceptance_corpus()) > 100

    def test_atlas(self):
        assert assert_matches_host_degree_rule(atlas_graphs()) > 1000

    def test_random_sparse_graphs(self):
        # a seeded sample of the 8-30-vertex trees with 2-6 chords that
        # TestStructuralExistence draws; the reference is slow on some of them
        stream = sparse_graph_stream(2000)
        sample = random.Random(20261104).sample(range(2000), 20)
        assert assert_matches_host_degree_rule([stream[k] for k in sample]) > 20

    def test_subdivided_patterns_with_trees_hung_on(self):
        rng = random.Random(20261105)
        patterns = [p for p in PATTERN_ORDER for _ in range(5)]
        graphs = [hung(rng, sorted(random_subdivision(rng, sorted(pattern_graph(p).edges),
                                                      rng.randint(8, 12)).edges), 22)
                  for p in patterns]
        assert assert_matches_host_degree_rule(graphs) >= len(graphs)
        assert all(find_topological_minor(g, p) is not None for g, p in zip(graphs, patterns))

    def test_tree_vertices_are_never_candidates(self, monkeypatch):
        # a butterfly on 10..14 with the path 1..10 hung on it: the path's
        # vertices come first in id order, yet no branch image is placed there
        g = SimpleGraph.of([(u + 9, v + 9) for u, v in pattern_graph(Pattern.BUTTERFLY).edges]
                           + [(v, v + 1) for v in range(1, 10)])
        placed = []
        route_paths = minors._route_paths

        def noted(host, edges, branch):
            placed.append(set(branch.values()))
            return route_paths(host, edges, branch)

        monkeypatch.setattr(minors, "_route_paths", noted)
        assert find_topological_minor(g, Pattern.BUTTERFLY) is not None
        assert placed and all(images <= {10, 11, 12, 13, 14} for images in placed)


def wheel(n: int) -> SimpleGraph:
    """Hub 1 joined to every vertex of the n-cycle 2..n+1."""
    rim = list(range(2, n + 2))
    return SimpleGraph.of([(1, v) for v in rim] + list(zip(rim, rim[1:] + rim[:1])))


def prism(n: int) -> SimpleGraph:
    """The 2 x n ladder closed into two n-cycles."""
    return SimpleGraph.of(sorted(ladder(n).edges) + [(1, n), (n + 1, 2 * n)])


def complete_bipartite_two(n: int) -> SimpleGraph:
    """K_{2,n}: vertices 1 and 2 joined to each of 3..n+2."""
    return SimpleGraph.of([(a, v) for a in (1, 2) for v in range(3, n + 3)])


def subdivided_books() -> list[SimpleGraph]:
    """The book with each edge subdivided in turn, then every edge once and twice."""
    book = fixture_graph("book")
    graphs = [subdivide_edge(book, e) for e in book.sorted_edges()]
    for _ in range(2):
        for e in list(book.sorted_edges()):
            book = subdivide_edge(book, e)
        graphs.append(book)
    return graphs


def has_k4_by_treewidth(g: SimpleGraph) -> bool:
    """Whether K4 is a minor of g, by networkx's min-degree elimination.

    A graph has no K4 minor iff its treewidth is at most 2.  Such a graph
    always has a vertex of degree at most 2, and eliminating it is a
    contraction, so the min-degree order then has width at most 2; every
    order has width 3 or more when the treewidth is.
    """
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_degree

    return treewidth_min_degree(nx.Graph(sorted(g.edges)))[0] > 2


def relabelled(rng: random.Random, g: SimpleGraph) -> SimpleGraph:
    """A copy of g with its vertex ids shuffled among themselves."""
    ids = sorted(g.vertices)
    image = dict(zip(ids, rng.sample(ids, len(ids))))
    return SimpleGraph.of(((image[u], image[v]) for u, v in g.edges),
                          isolated=image.values())


def butterfly_or_bowtie(g: SimpleGraph) -> Pattern:
    """BUTTERFLY when the search embeds it in g, else BOWTIE; where g's cycle
    rank allows listing its cycles, the cycle oracle must agree."""
    found = find_topological_minor(g, Pattern.BUTTERFLY) is not None
    if cycle_rank(g) <= 8:
        assert has_butterfly_by_cycles(g) == found, g
    return Pattern.BUTTERFLY if found else Pattern.BOWTIE


def has_butterfly_by_cycles_or_search(g: SimpleGraph) -> bool:
    """The cycle oracle where g's cycle rank allows listing its cycles, else
    the search."""
    if cycle_rank(g) <= 8:
        return has_butterfly_by_cycles(g)
    return find_topological_minor(g, Pattern.BUTTERFLY) is not None


class TestStructuralExistence:
    """_rank_three_pattern names K4, else the book, else the butterfly, else
    the bowtie, each exactly when the search finds it first, and agrees with
    the flow, a treewidth test and the cycle oracle on larger graphs."""

    def assert_matches_search(self, graphs) -> tuple[int, int]:
        k4 = [find_topological_minor(g, Pattern.K4) is not None for g in graphs]
        book = [find_topological_minor(g, Pattern.BOOK) is not None for g in graphs]
        expected = [Pattern.K4 if a else Pattern.BOOK if b else butterfly_or_bowtie(g)
                    for g, a, b in zip(graphs, k4, book)]
        assert [_rank_three_pattern(g) for g in graphs] == expected
        # a connected graph of cycle rank 3 or more holds the pattern named last
        for g, pattern in zip(graphs, expected):
            qualifies = len(connected_components(g)) == 1 and cycle_rank(g) >= 3
            if pattern is Pattern.BOWTIE and qualifies:
                assert find_topological_minor(g, Pattern.BOWTIE) is not None, g
        return sum(k4), sum(book)

    def test_acceptance_corpus(self):
        k4, book = self.assert_matches_search(acceptance_corpus())
        assert k4 > 50 and book > 50

    def test_hills_and_ladders(self):
        graphs = [fixture_graph(f"hills:{k}") for k in range(2, 9)]
        graphs += [ladder(n) for n in range(3, 9)]
        assert self.assert_matches_search(graphs) == (0, 0)

    def test_wheels_prisms_and_two_hub_graphs(self):
        # wheels and prisms hold K4 but, with at most one vertex of degree
        # 4 or more, no book; K_{2,n} holds the book from n = 4 on but no K4
        graphs = [wheel(n) for n in range(3, 9)] + [prism(n) for n in range(3, 7)]
        graphs += [complete_bipartite_two(n) for n in range(2, 7)]
        assert self.assert_matches_search(graphs) == (10, 3)

    def test_subdivided_books(self):
        assert self.assert_matches_search(subdivided_books()) == (0, 9)

    def test_random_sparse_graphs(self):
        # a random tree on 8-12 vertices plus 2-4 chords, every size and chord count alike
        rng = random.Random(20261019)
        graphs = [random_sparse_graph(rng, 8 + k % 5, 2 + k % 3) for k in range(100)]
        k4, book = self.assert_matches_search(graphs)
        assert k4 > 10 and book > 5

    def test_matches_the_flow_on_larger_graphs(self):
        # the atlas, random sparse graphs on 8-30 vertices, strips and
        # subdivided patterns, then each relabelled, which reorders the reduction
        rng = random.Random(20261104)
        graphs = atlas_graphs() + [strip(n) for n in range(5, 41)]
        graphs += [random_sparse_graph(rng, 8 + k % 23, 2 + k % 5) for k in range(2000)]
        graphs += [random_subdivision(rng, sorted(pattern_graph(p).edges), rng.randint(8, 30))
                   for p in PATTERN_ORDER for _ in range(50)]
        # a relabelled copy holds the butterfly when its original does; the
        # search, which judges the strips, is slow on them relabelled
        butterfly = [has_butterfly_by_cycles_or_search(g) for g in graphs] * 2
        graphs += [relabelled(rng, g) for g in graphs]
        got = [_rank_three_pattern(g) for g in graphs]
        assert got == [
            Pattern.K4 if has_k4_by_treewidth(g) else Pattern.BOOK if has_book_by_flow(g)
            else Pattern.BUTTERFLY if b else Pattern.BOWTIE
            for g, b in zip(graphs, butterfly)
        ]
        assert min(got.count(p) for p in Pattern) > 300

    def test_linear_on_strips(self):
        # a strip is one outerplanar block, all but four of its vertices of
        # degree 4: no K4 and no book, and about n * n / 2 pairs of hubs.
        # The two sizes take turns, so a burst of load slows both alike, and
        # the least of seven runs of each is compared
        graphs = (strip(2000), strip(4000))
        assert all(_rank_three_pattern(g) is Pattern.BUTTERFLY for g in graphs)
        seconds = [float("inf")] * len(graphs)
        for _ in range(7):
            for i, g in enumerate(graphs):
                start = time.perf_counter()
                _rank_three_pattern(g)
                seconds[i] = min(seconds[i], time.perf_counter() - start)
        assert seconds[1] < 3 * seconds[0]


class TestSearchOnce:
    @staticmethod
    def count_searches(monkeypatch) -> list:
        """Patch find_topological_minor to note each (pattern, found) it returns."""
        calls = []
        search = minors.find_topological_minor

        def counted(host, pattern, cap=64):
            emb = search(host, pattern, cap=cap)
            calls.append((pattern, emb is not None))
            return emb

        monkeypatch.setattr(minors, "find_topological_minor", counted)
        return calls

    @pytest.mark.parametrize(
        "name", ["hills:16", "hills:24", "ladder:8", "config:ppe1", "config:ppe2"]
        + [f"book:{i}" for i in range(9)]
    )
    def test_one_search_per_verdict(self, monkeypatch, name):
        head, _, arg = name.partition(":")
        if head == "ladder":
            g = ladder(int(arg))
        elif head == "book":
            g = subdivided_books()[int(arg)]
        else:
            g = fixture_graph(name)
        # every g here is a fresh copy (the config fixtures are shared): a
        # verdict cached on a graph an earlier test decided would skip the
        # searches counted below
        g = SimpleGraph(g.vertices, g.edges)
        calls = self.count_searches(monkeypatch)
        start = time.perf_counter()
        verdict = decide_support(g)
        assert time.perf_counter() - start < 0.1
        # a subdivided book's embedding is read off its core, with no search
        assert calls == ([] if head == "book" else [(verdict.pattern, True)])
        assert verify_embedding(g, verdict.pattern, verdict.embedding)

    def test_one_successful_search_per_rank_three_verdict(self, monkeypatch):
        # fresh copies: the corpus graphs may carry verdicts cached by earlier tests
        rng = random.Random(20261021)
        graphs = [SimpleGraph(g.vertices, g.edges) for g in acceptance_corpus()]
        graphs += [random_sparse_graph(rng, 8 + k % 5, 2 + k % 3) for k in range(200)]
        calls = self.count_searches(monkeypatch)
        named = set()
        read_off = searched = 0
        for g in graphs:
            calls.clear()
            verdict = decide_support(g)
            # every graph here is connected
            if cycle_rank(g) >= 3:
                # a subdivision of K4 or the book inside a rank-3 core has the
                # core's rank and no leaf, so it is the core, read off unsearched
                subdivision = cycle_rank(g) == 3 and verdict.pattern in (Pattern.K4, Pattern.BOOK)
                assert calls == ([] if subdivision else [(verdict.pattern, True)]), g
                named.add(verdict.pattern)
                read_off += subdivision
                searched += not subdivision
            else:
                assert calls == [], g
        assert named == set(Pattern)
        assert read_off > 50 and searched > 50

    def test_matches_searching_every_pattern(self):
        # the verdicts, patterns and embeddings of the decider that searched
        # each pattern in turn
        rng = random.Random(20261020)
        graphs = acceptance_corpus() + [fixture_graph(f"hills:{k}") for k in range(2, 7)]
        graphs += [ladder(n) for n in range(3, 8)] + subdivided_books()
        graphs += [random_sparse_graph(rng, 8 + k % 5, 2 + k % 3) for k in range(100)]
        assert [decide_support(g) for g in graphs] == [decide_support_by_search(g) for g in graphs]

    def test_cap_refused_before_any_test(self, monkeypatch):
        # hills:32 qualifies and has 65 vertices; it and cn:100 are built
        # afresh, so no verdict cached by an earlier test is read
        g = fixture_graph("hills:32")

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the cap check")

        monkeypatch.setattr(minors, "_rank_three_pattern", refuse)
        monkeypatch.setattr(minors, "find_topological_minor", refuse)
        with pytest.raises(HostTooLarge):
            decide_support(g)
        assert decide_support(fixture_graph("cn:100")).reason is Reason.UNICYCLIC


class TestOracleAgreementSmoke:
    def test_small_graphs(self):
        rng = random.Random(77)
        sample = rng.sample(ci_subsample(), 120)
        for g in sample:
            structural = decide_support(g)
            assert structural.supports_unsat == supports_unsat_bruteforce(g)
            if structural.supports_unsat:
                assert verify_embedding(g, structural.pattern, structural.embedding)


class TestVerdictCache:
    """decide_support decides a graph once per cap and keeps the verdict on it.

    Every test builds its graphs afresh, so no verdict cached by an earlier
    test hides a search.
    """

    @staticmethod
    def count_searches(monkeypatch) -> list:
        searches = []
        search = minors.find_topological_minor

        def counted(*args, **kwargs):
            searches.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(minors, "find_topological_minor", counted)
        return searches

    def test_witness_reuses_the_verdict(self, monkeypatch):
        g = fixture_graph("hills:5")
        searches = self.count_searches(monkeypatch)
        verdict = decide_support(g)
        witness = synthesize_witness(g)
        assert searches == [Pattern.BUTTERFLY]
        assert verdict.pattern is Pattern.BUTTERFLY and witness is not None

    def test_same_verdict_object_each_time(self):
        g = fixture_graph("hills:4")
        assert decide_support(g) is decide_support(g)
        negative = fixture_graph("cn:9")
        assert decide_support(negative) is decide_support(negative)

    def test_caps_cached_apart(self, monkeypatch):
        # a subdivided book runs no search and routes nothing: its core's one
        # read-off marks each decision
        g = subdivided_books()[0]
        searches = self.count_searches(monkeypatch)
        readings = []
        core_branch = minors._core_branch

        def counted(*args):
            readings.append(core_branch(*args))
            return readings[-1]

        def refuse(*args):
            raise AssertionError("a read-off was routed")

        monkeypatch.setattr(minors, "_core_branch", counted)
        monkeypatch.setattr(minors, "_route_paths", refuse)
        at_64 = decide_support(g)
        at_100 = decide_support(g, cap=100)
        assert searches == [] and len(readings) == 2 and readings[0] == readings[1]
        assert at_64 == at_100 and at_64 is not at_100 and at_64.pattern is Pattern.BOOK
        assert decide_support(g, cap=64) is at_64 and decide_support(g, cap=100) is at_100
        assert len(readings) == 2

    def test_refusal_not_cached(self):
        g = fixture_graph("hills:3")  # one qualifying component of 7 vertices
        for _ in range(2):
            with pytest.raises(HostTooLarge):
                decide_support(g, cap=5)
        verdict = decide_support(g, cap=100)
        assert verdict.supports_unsat and verify_embedding(g, verdict.pattern, verdict.embedding)
        with pytest.raises(HostTooLarge):
            decide_support(g, cap=5)

    def test_equality_hash_and_repr_unchanged(self):
        g = fixture_graph("hills:3")
        twin = SimpleGraph.of(sorted(g.edges))
        before = (hash(g), repr(g))
        decide_support(g)
        decide_support(g, cap=100)
        assert g == twin and twin == g
        assert (hash(g), repr(g)) == before == (hash(twin), repr(twin))
        assert {g: 1}[twin] == 1


def rank_two_graph(rng: random.Random, shape: str, n: int, trees: bool = True) -> SimpleGraph:
    """A connected cycle-rank-2 graph on n vertices with shuffled labels.

    The 2-core is a figure-eight, a dumbbell whose bar has 1-3 edges, or a
    theta; "theta-edge" is a theta one of whose three paths is a single
    edge.  Its cycles and paths have at most n / 4 edges.  Random trees
    hung on the core fill it up to n vertices, unless trees is false.
    """
    size = max(3, n // 4)
    edges: list[tuple[int, int]] = []
    count = 0

    def fresh() -> int:
        nonlocal count
        count += 1
        return count

    def path(a: int, b: int, length: int) -> None:
        vs = [a] + [fresh() for _ in range(length - 1)] + [b]
        edges.extend(zip(vs, vs[1:]))

    a = fresh()
    if shape == "figure-eight":
        path(a, a, rng.randint(3, size))
        path(a, a, rng.randint(3, size))
    elif shape == "dumbbell":
        b = fresh()
        path(a, a, rng.randint(3, size))
        path(b, b, rng.randint(3, size))
        path(a, b, rng.randint(1, 3))
    else:
        b = fresh()
        path(a, b, 1 if shape == "theta-edge" else rng.randint(2, size))
        path(a, b, rng.randint(2, size))
        path(a, b, rng.randint(2, size))
    while trees and count < n:
        edges.append((rng.randint(1, count), fresh()))
    labels = rng.sample(range(1, 3 * count + 1), count)
    return SimpleGraph.of([(labels[u - 1], labels[v - 1]) for u, v in edges])


def read_off(g: SimpleGraph):
    """_core_branch on the one kernel of g, or None when g's core has no hub."""
    degree = g._core_degrees()
    kernels = _kernel(g, degree)
    assert len(kernels) <= 1, g
    return _core_branch(*kernels[0], degree) if kernels else None


def core_pattern(g: SimpleGraph) -> Pattern | None:
    """The pattern _core_branch names on the one kernel of g, or None; on a
    component of rank 3, K4 or the book when its core is a subdivision of it."""
    found = read_off(g)
    return found and found[0]


class TestRankTwoShape:
    """_core_branch names a pattern exactly when the 2-core of c has a cut vertex.

    A figure-eight core names the butterfly and a dumbbell the bowtie.
    """

    PATTERNS = {"figure-eight": Pattern.BUTTERFLY, "dumbbell": Pattern.BOWTIE,
                "theta": None, "theta-edge": None}

    def test_acceptance_corpus(self):
        comps = [c for g in acceptance_corpus() for c in connected_components(g)]
        rank_two = [c for c in comps if len(c.edges) - len(c.vertices) + 1 == 2]
        got = [core_pattern(c) is not None for c in rank_two]
        assert got == [bool(cut_vertices(two_core_by_networkx(c))) for c in rank_two]
        assert sum(got) > 20 and len(got) - sum(got) > 100

    @pytest.mark.parametrize("n", [10, 30, 100, 400, 1500])
    def test_generated_cores_with_trees(self, n):
        rng = random.Random(20261021 + n)
        for shape, expected in self.PATTERNS.items():
            for _ in range(4):
                g = rank_two_graph(rng, shape, n)
                assert len(g.vertices) == n and len(g.edges) == n + 1
                assert bool(cut_vertices(two_core_by_networkx(g))) is (expected is not None), (shape, g)
                assert core_pattern(g) is expected, (shape, g)

    def test_bare_cores(self):
        # no trees hung on: every vertex is in the core
        rng = random.Random(20261022)
        for shape, expected in self.PATTERNS.items():
            for _ in range(10):
                g = rank_two_graph(rng, shape, 40, trees=False)
                assert core_pattern(g) is expected, (shape, g)


RANK_TWO_SHAPES = ("figure-eight", "dumbbell", "theta", "theta-edge")


def component_mix(rng: random.Random, excess: int) -> SimpleGraph:
    """A disjoint union, ids shuffled, whose 2-core has the given excess.

    Components of cycle rank 2, 3 and 4 make up the excess, 2 * (rank - 1)
    each; unicyclic components, trees and isolated vertices go beside them.
    """
    parts = []
    left = excess
    while left:
        rank = rng.randint(2, min(4, left // 2 + 1))
        if rank == 2:
            parts.append(rank_two_graph(rng, rng.choice(RANK_TWO_SHAPES), rng.randint(6, 20)))
        else:
            parts.append(random_sparse_graph(rng, rng.randint(6, 14), rank))
        left -= 2 * (rank - 1)
    parts += [random_sparse_graph(rng, rng.randint(3, 12), 1) for _ in range(rng.randint(0, 3))]
    parts += [random_sparse_graph(rng, rng.randint(2, 8), 0) for _ in range(rng.randint(0, 3))]
    edges = []
    top = 0
    for part in parts:
        ids = {v: top + i for i, v in enumerate(sorted(part.vertices), start=1)}
        edges += [(ids[u], ids[v]) for u, v in part.edges]
        top += len(ids)
    isolated = rng.randint(0, 3)
    perm = list(range(1, top + isolated + 1))
    rng.shuffle(perm)
    return SimpleGraph.of([(perm[u - 1], perm[v - 1]) for u, v in edges], isolated=perm[top:])


def outcome(decide, g: SimpleGraph):
    """A verdict, or the cap and size of a refusal."""
    try:
        return decide(g)
    except HostTooLarge as exc:
        return ("refused", exc.cap, exc.size)


class TestPeelFirstVerdict:
    """decide_support, which starts from one leaf peel of the whole graph,
    against the component-by-component decider it replaced."""

    @staticmethod
    def assert_matches_components(graphs, cap: int = 64) -> list:
        """decide_support at the default cap against the oracle at the given one."""
        # graphs built afresh, so no verdict cached by an earlier test is read
        got = [outcome(decide_support, g) for g in graphs]
        assert got == [outcome(lambda h: decide_support_by_components(h, cap=cap), g) for g in graphs]
        return got

    def test_acceptance_corpus(self):
        self.assert_matches_components(acceptance_corpus())

    @pytest.mark.parametrize("n", [10, 20, 100, 1500])
    def test_rank_two_shapes(self, n):
        rng = random.Random(20261101 + n)
        graphs = [rank_two_graph(rng, shape, n) for shape in RANK_TWO_SHAPES for _ in range(4)]
        graphs += [rank_two_graph(rng, shape, 40, trees=False) for shape in RANK_TWO_SHAPES]
        # a qualifying rank-2 component reads off, answered at any size, so
        # the oracle searches with the cap lifted past every graph here
        got = self.assert_matches_components(graphs, cap=10**4)
        assert {v.reason for v in got} >= {Reason.THETA_CORE}

    @pytest.mark.parametrize("excess", [0, 2, 4, 6])
    def test_component_mixes(self, excess):
        rng = random.Random(20261102 + excess)
        graphs = [component_mix(rng, excess) for _ in range(40)]
        for g in graphs:
            core = two_core(g)
            assert sum(core.degree(v) - 2 for v in core.vertices) == excess
        got = self.assert_matches_components(graphs)
        if excess:
            assert {v.supports_unsat for v in got} == {True, False}

    def test_non_qualifying_graphs_decided_by_the_peel(self, monkeypatch):
        # neither components nor a sorted adjacency are built on the way
        rng = random.Random(20261103)
        reasons = {"tree": Reason.FOREST, "cycle": Reason.UNICYCLIC, "theta": Reason.THETA_CORE}
        graphs = [hung_core_graph(rng, core, 1500) for core in reasons for _ in range(4)]
        graphs += [component_mix(rng, 0) for _ in range(10)]
        graphs += [rank_two_graph(rng, shape, 300) for shape in ("theta", "theta-edge")]

        def refuse(g):
            raise AssertionError("components were built")

        with monkeypatch.context() as patch:
            patch.setattr(minors, "connected_components", refuse)
            verdicts = [decide_support(g) for g in graphs]
        assert not any("adjacency" in g.__dict__ for g in graphs)
        assert [v.reason for v in verdicts[:12]] == [r for r in reasons.values() for _ in range(4)]
        assert verdicts == [decide_support_by_components(g) for g in graphs]


class TestRankTwoGate:
    """A qualifying rank-2 component runs no structure test, no search and
    no routing.

    Its embedding, paths and all, is read off the core's two loops.
    """

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("a rank-2 component ran a test, search or routing")

    def test_figure_eights_and_dumbbells_skip_the_tests(self, monkeypatch):
        rng = random.Random(20261103)
        shapes = {"figure-eight": Pattern.BUTTERFLY, "dumbbell": Pattern.BOWTIE}
        graphs = [rank_two_graph(rng, shape, n) for shape in shapes for n in (8, 14, 20)
                  for _ in range(3)]
        graphs += [rank_two_graph(rng, shape, 20, trees=False) for shape in shapes]
        # a dumbbell on the smallest ids beside a K4: the dumbbell comes first
        dumbbell = rank_two_graph(rng, "dumbbell", 12)
        top = max(dumbbell.vertices)
        graphs.append(SimpleGraph.of(sorted(dumbbell.edges) + [
            (top + u, top + v) for u, v in fixture_graph("k4").edges]))
        # the decider that tried every pattern in turn, on copies
        expected = [decide_support_by_components(SimpleGraph.of(sorted(g.edges))) for g in graphs]

        monkeypatch.setattr(minors, "_rank_three_pattern", self._refuse)
        monkeypatch.setattr(minors, "find_topological_minor", self._refuse)
        monkeypatch.setattr(minors, "_route_paths", self._refuse)
        got = [decide_support(g) for g in graphs]
        assert got == expected
        assert [v.pattern for v in got[:18]] == [p for p in shapes.values() for _ in range(9)]
        assert all(verify_embedding(g, v.pattern, v.embedding) for g, v in zip(graphs, got))

    def test_hosts_with_trees_at_the_cap(self, monkeypatch):
        # figure-eights and dumbbells with trees hung on the core, at the
        # default cap of 64 vertices, on which the search took seconds
        rng = random.Random(20261103)
        graphs = [rank_two_graph(rng, shape, 64) for shape in ("figure-eight", "dumbbell")
                  for _ in range(3)]
        monkeypatch.setattr(minors, "find_topological_minor", self._refuse)
        got = [decide_support(g) for g in graphs]
        assert [v.pattern for v in got] == [Pattern.BUTTERFLY] * 3 + [Pattern.BOWTIE] * 3
        assert all(verify_embedding(g, v.pattern, v.embedding) for g, v in zip(graphs, got))


def assert_built_as_searched(graphs, rank: int = 2) -> int:
    """Every embedding decide_support reads off the core of a component of
    the given cycle rank, against find_topological_minor's: value, repr and
    key order.

    Returns the number of components compared.
    """
    compared = 0
    for g in graphs:
        for comp in connected_components(g):
            if len(comp.edges) - len(comp.vertices) + 1 != rank:
                continue
            if (pattern := core_pattern(comp)) is None:
                continue
            verdict = decide_support(comp)
            built, searched = verdict.embedding, find_topological_minor(comp, pattern)
            assert verdict.pattern is pattern
            assert built == searched and repr(built) == repr(searched), comp
            assert list(built.branch_map) == list(searched.branch_map)
            assert list(built.paths) == list(searched.paths)
            compared += 1
    return compared


class TestRankTwoEmbedding:
    """The embedding read off a rank-2 core is the one the search returns."""

    def test_atlas(self):
        assert assert_built_as_searched(atlas_graphs()) > 20

    @pytest.mark.parametrize("trees", [True, False])
    def test_generated_cores(self, trees):
        rng = random.Random(20261104 + trees)
        graphs = [rank_two_graph(rng, shape, n, trees=trees)
                  for shape in ("figure-eight", "dumbbell") for n in range(8, 21) for _ in range(4)]
        graphs += [relabelled(rng, g) for g in graphs]
        assert assert_built_as_searched(graphs) == len(graphs)

    def test_component_mixes(self):
        rng = random.Random(20261105)
        graphs = [component_mix(rng, excess) for excess in (2, 4, 6) for _ in range(30)]
        assert assert_built_as_searched(graphs) > 30

    @pytest.mark.skipif(not FULL_CORPUS, reason="the search takes seconds per host; SATMINORS_FULL=1")
    def test_hosts_at_the_cap(self):
        rng = random.Random(20261103)
        graphs = [rank_two_graph(rng, shape, 64) for shape in ("figure-eight", "dumbbell")
                  for _ in range(3)]
        graphs += [relabelled(rng, g) for g in graphs]
        assert assert_built_as_searched(graphs) == len(graphs)


def hung_subdivision(rng: random.Random, pattern: Pattern, n: int) -> SimpleGraph:
    """A random subdivision of the pattern on about n / 2 vertices, with
    random trees hung on it to make n vertices, ids shuffled."""
    core = random_subdivision(rng, sorted(pattern_graph(pattern).edges), max(6, n // 2))
    edges = sorted(core.edges)
    edges += [(rng.randrange(1, v), v) for v in range(len(core.vertices) + 1, n + 1)]
    return relabelled(rng, SimpleGraph.of(edges))


class TestRankThreeGate:
    """A rank-3 core that subdivides K4 or the book runs no block pass, no
    search and no routing.

    Its embedding, paths and all, is read off the core's chains.
    """

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("a K4 or book subdivision ran the block pass, a search or a routing")

    def test_subdivisions_with_trees_skip_the_tests(self, monkeypatch):
        rng = random.Random(20261105)
        graphs = [hung_subdivision(rng, p, n) for p in (Pattern.K4, Pattern.BOOK)
                  for n in (6, 12, 24, 40, 64) for _ in range(3)]
        graphs += subdivided_books()
        # the decider that tried every pattern in turn, on copies
        expected = [decide_support_by_components(SimpleGraph.of(sorted(g.edges))) for g in graphs]

        monkeypatch.setattr(minors, "_rank_three_pattern", self._refuse)
        monkeypatch.setattr(minors, "find_topological_minor", self._refuse)
        monkeypatch.setattr(minors, "_route_paths", self._refuse)
        got = [decide_support(g) for g in graphs]
        assert got == expected
        assert [v.pattern for v in got[:30]] == [p for p in (Pattern.K4, Pattern.BOOK) for _ in range(15)]
        assert max(len(g.vertices) for g in graphs) == 64
        assert all(verify_embedding(g, v.pattern, v.embedding) for g, v in zip(graphs, got))

    @pytest.mark.parametrize("name, hubs", [("config:ppe1", (3, 3, 3, 3)), ("hills:3", (4, 4))])
    def test_other_cores_of_these_hub_degrees_take_the_block_pass(self, monkeypatch, name, hubs):
        # ppe1's four hubs do not pair off by six chains, and hills:3's two
        # hubs each close a loop; fresh copies, as the fixtures are shared
        g = SimpleGraph(fixture_graph(name).vertices, fixture_graph(name).edges)
        degree = g._core_degrees()
        assert tuple(sorted(d for d in degree.values() if d > 2)) == hubs
        assert read_off(g) is None
        named = []
        rank_three_pattern = minors._rank_three_pattern

        def noted(comp):
            named.append(rank_three_pattern(comp))
            return named[-1]

        monkeypatch.setattr(minors, "_rank_three_pattern", noted)
        verdict = decide_support(g)
        assert named == [verdict.pattern]
        assert verdict == decide_support_by_search(SimpleGraph(g.vertices, g.edges))

    def test_atlas_and_acceptance_corpus(self):
        assert assert_built_as_searched(atlas_graphs() + acceptance_corpus(), rank=3) > 150

    def test_subdivisions(self):
        rng = random.Random(20261106)
        graphs = subdivided_books()
        graphs += [random_subdivision(rng, sorted(pattern_graph(p).edges), rng.randint(6, 40))
                   for p in (Pattern.K4, Pattern.BOOK) for _ in range(40)]
        graphs += [hung_subdivision(rng, p, 64) for p in (Pattern.K4, Pattern.BOOK) for _ in range(5)]
        assert assert_built_as_searched(graphs, rank=3) == len(graphs)

    def test_benchmark_graphs(self):
        families = ("subdivided-k4", "subdivided-book", "random-sparse")
        graphs = [g for seed in (1, 2, 3) for g in perfbench_analyze_graphs(seed, families)]
        assert assert_built_as_searched(graphs, rank=3) > 90

    def test_random_sparse_hosts(self):
        # a random tree on 6-25 vertices plus 3 chords: cycle rank 3
        rng = random.Random(20261107)
        graphs = [random_sparse_graph(rng, 6 + k % 20, 3) for k in range(300)]
        assert assert_built_as_searched(graphs, rank=3) > 50


def assert_paths_as_routed(graphs) -> int:
    """Every read-off's paths against _route_paths on its branch map, the
    search's last level, by value.  The read-offs of a whole graph's
    kernels are its components' read-offs, in component order.

    Returns the number of components compared.
    """
    compared = 0
    for g in graphs:
        found = []
        for comp in connected_components(g):
            core = read_off(comp)
            if core is None:
                continue
            pattern, branch, paths = core
            routed = _route_paths(comp, _plan(pattern)[2][-1], branch)
            assert paths == routed, comp
            found.append(core)
        degree, label = g._core_degrees(), _component_of(g)
        kernels = sorted(_kernel(g, degree), key=lambda kernel: label[kernel[0][0]])
        whole = [_core_branch(hubs, chains, degree) for hubs, chains in kernels]
        assert found == [core for core in whole if core is not None], g
        compared += len(found)
    return compared


def beside(g: SimpleGraph, edges) -> SimpleGraph:
    """g beside the given edges, their ids shifted past g's."""
    top = max(g.vertices)
    return SimpleGraph.of(sorted(g.edges) + [(top + u, top + v) for u, v in edges])


def path_edges(n: int) -> list[tuple[int, int]]:
    """The edges of the path 1..n."""
    return [(i, i + 1) for i in range(1, n)]


def canonical_kernels(kernels) -> list:
    """Kernels sorted, each chain taken in the lesser of its two directions
    and the chains sorted: a multiset in either direction."""
    return sorted((hubs, sorted(min(chain, chain[::-1]) for chain in chains)) for hubs, chains in kernels)


class TestKernel:
    """_kernel against kernel_by_networkx, which shares no code with it: per
    component, the hubs and the chains in either direction.  The chains
    partition the edges of the core components with a hub, and a kernel's
    cycle rank is its component's."""

    @staticmethod
    def assert_matches_oracle(graphs) -> int:
        """Returns the number of kernels compared."""
        compared = 0
        for g in graphs:
            kernels = _kernel(g, g._core_degrees())
            assert canonical_kernels(kernels) == canonical_kernels(kernel_by_networkx(g)), g
            label = _component_of(g)
            hubbed = {label[hubs[0]] for hubs, _ in kernels}
            steps = [edge(a, b) for _, chains in kernels for chain in chains for a, b in zip(chain, chain[1:])]
            core = two_core_by_networkx(g)
            assert sorted(steps) == sorted(e for e in core.edges if label[e[0]] in hubbed), g
            components = connected_components(g)
            for hubs, chains in kernels:
                comp = components[label[hubs[0]]]
                rank = len(comp.edges) - len(comp.vertices) + 1
                assert len(chains) - len(hubs) + 1 == rank >= 2, comp
                assert len(hubs) <= 2 * (rank - 1) and len(chains) <= 3 * (rank - 1), comp
            compared += len(kernels)
        return compared

    def test_atlas_and_acceptance_corpus(self):
        assert self.assert_matches_oracle(atlas_graphs() + acceptance_corpus()) > 1000

    def test_random_subdivisions(self):
        rng = random.Random(20261113)
        graphs = [random_subdivision(rng, sorted(pattern_graph(p).edges), rng.randint(6, 60))
                  for p in PATTERN_ORDER for _ in range(30)]
        assert self.assert_matches_oracle(graphs) == len(graphs)

    def test_hung_cores(self):
        rng = random.Random(20261114)
        graphs = [hung_core_graph(rng, core, n) for core in ("tree", "cycle", "theta", "figure-eight")
                  for n in (16, 64, 300) for _ in range(5)]
        graphs += [hung_subdivision(rng, p, 64) for p in PATTERN_ORDER for _ in range(5)]
        assert self.assert_matches_oracle(graphs) == 2 * 15 + 20

    def test_component_mixes(self):
        # trees, unicyclic components and isolated vertices beside the kernels
        rng = random.Random(20261115)
        graphs = [component_mix(rng, excess) for excess in (0, 2, 4, 6, 8) for _ in range(30)]
        assert self.assert_matches_oracle(graphs) > 150


class TestReadOffPaths:
    """The paths read off a core's chains equal, by value, the ones
    _route_paths places, and deciding, checking and lifting a read-off host
    builds neither a sorted adjacency nor a component labelling."""

    def test_atlas_and_acceptance_corpus(self):
        assert assert_paths_as_routed(atlas_graphs() + acceptance_corpus()) > 200

    def test_random_subdivisions(self):
        rng = random.Random(20261108)
        graphs = [random_subdivision(rng, sorted(pattern_graph(p).edges), rng.randint(6, 40))
                  for p in PATTERN_ORDER for _ in range(30)]
        assert assert_paths_as_routed(graphs) == len(graphs)

    def test_hung_subdivisions(self):
        rng = random.Random(20261109)
        graphs = [hung_subdivision(rng, p, 64) for p in PATTERN_ORDER for _ in range(10)]
        assert assert_paths_as_routed(graphs) == len(graphs)

    def test_benchmark_graphs(self):
        families = ("random-sparse", "subdivided-k4", "subdivided-book", "figure-eight")
        graphs = [g for seed in (1, 2, 3) for g in perfbench_analyze_graphs(seed, families)]
        assert assert_paths_as_routed(graphs) > 150

    def test_no_sorted_adjacency_and_no_components(self):
        rng = random.Random(20261110)
        graphs = [hung_subdivision(rng, p, n) for p in PATTERN_ORDER for n in (12, 40, 64)]
        graphs += [rank_two_graph(rng, shape, 30) for shape in ("figure-eight", "dumbbell")]
        # beside cycles and trees, so the read-off is the whole graph's
        graphs += [beside(g, [(1, 2), (2, 3), (1, 3), (4, 5)]) for g in graphs[::3]]
        for g in graphs:
            assert core_pattern(g) is not None and len(g.vertices) <= 64
            verdict = decide_support(g)
            assert verify_embedding(g, verdict.pattern, verdict.embedding)
            assert synthesize_witness(g) is not None
            assert "adjacency" not in g.__dict__ and "_component_of" not in g.__dict__, g
        # above the cap: a theta, whose one kernel reads off nothing, and
        # read-offs, answered at any size; none of them labels components
        big = [hung_core_graph(rng, "theta", 1500), hung_core_graph(rng, "figure-eight", 200),
               hung_subdivision(rng, Pattern.K4, 200)]
        verdicts = [decide_support(g) for g in big]
        assert not any("adjacency" in g.__dict__ or "_component_of" in g.__dict__ for g in big)
        assert [v.reason or v.pattern for v in verdicts] == [Reason.THETA_CORE, Pattern.BUTTERFLY, Pattern.K4]


class TestCapBesideTheReadOff:
    """The cap guards the search alone: a read-off is answered at any size,
    and the cap is checked on a component that takes the block pass, not
    on the whole graph."""

    def test_k4_beside_a_long_path(self):
        rng = random.Random(20261111)
        g = beside(random_subdivision(rng, sorted(pattern_graph(Pattern.K4).edges), 20), path_edges(80))
        assert len(g.vertices) == 100 and core_pattern(g) is Pattern.K4
        verdict = decide_support(g, cap=64)
        assert verdict == decide_support_by_components(SimpleGraph.of(sorted(g.edges)), cap=64)
        assert verdict.pattern is Pattern.K4

    def test_read_offs_above_the_cap_answered(self):
        rng = random.Random(20261112)
        eight = rank_two_graph(rng, "figure-eight", 100)
        k4 = hung_subdivision(rng, Pattern.K4, 100)
        for g in (eight, k4, beside(eight, path_edges(30)), beside(k4, path_edges(30))):
            assert core_pattern(g) is not None
            verdict = decide_support(SimpleGraph.of(sorted(g.edges)))
            assert verdict == decide_support_by_components(SimpleGraph.of(sorted(g.edges)), cap=1000)
            assert verify_embedding(g, verdict.pattern, verdict.embedding)
        # hills:32, 65 vertices of rank 32, takes the block pass: refused,
        # first or after a read-off on lesser ids, which is answered
        hills = sorted(fixture_graph("hills:32").edges)
        for g in (SimpleGraph.of(hills), beside(SimpleGraph.of(hills), eight.edges)):
            for decide in (decide_support, decide_support_by_components):
                with pytest.raises(HostTooLarge, match="host has 65 vertices, search cap is 64"):
                    decide(SimpleGraph.of(sorted(g.edges)))
        verdict = decide_support(beside(eight, hills))
        assert verdict.pattern is Pattern.BUTTERFLY and verdict.embedding == decide_support(eight).embedding


def damaged_embeddings(rng: random.Random, host: SimpleGraph, emb: Embedding):
    """Copies of emb, each damaged one way at random: ids that are 0,
    negative or no host vertex, repeated vertices, wrong ends, steps that
    are not edges, shared interiors and missing or extra pattern edges."""
    outside = max(host.vertices) + 1
    for _ in range(40):
        branch, paths = dict(emb.branch_map), {e: list(p) for e, p in emb.paths.items()}
        e = rng.choice(sorted(paths))
        path = paths[e]
        kind = rng.randrange(10)
        if kind == 0:
            path[rng.randrange(len(path))] = rng.choice((0, -1, -path[0], outside))
        elif kind == 1:
            v = rng.choice(sorted(branch))
            branch[v] = rng.choice((0, -2, outside, branch[rng.choice(sorted(branch))]))
        elif kind == 2:
            path.insert(rng.randrange(len(path) + 1), rng.choice(path))
        elif kind == 3:
            path.reverse()
        elif kind == 4 and len(path) > 2:
            del path[rng.randrange(1, len(path) - 1)]
        elif kind == 5:
            path[rng.randrange(len(path))] = rng.choice(sorted(host.vertices))
        elif kind == 6:
            inner = [x for p in paths.values() for x in p[1:-1]]
            if inner:
                path.insert(rng.randrange(1, len(path)), rng.choice(inner))
        elif kind == 7:
            del paths[e]
        elif kind == 8:
            paths[(e[0], e[1] + 10)] = path
        elif kind == 9:
            paths[e] = path[: rng.randrange(len(path) + 1)]
        yield Embedding(branch, paths)


class TestVerifyByEdgeSet:
    """verify_embedding reads each step from the host's edge set; it answers
    as the check that read the sorted adjacency did."""

    def test_damaged_embeddings(self):
        rng = random.Random(20261113)
        hosts = [hung_subdivision(rng, p, n) for p in PATTERN_ORDER for n in (8, 24, 40)]
        # fresh copies: some fixtures are shared objects, and the reference
        # keeps an adjacency on its host
        hosts += [SimpleGraph.of(sorted(fixture_graph(name).edges))
                  for name in ("k4", "book", "butterfly", "bowtie", "hills:4")]
        answers = []
        for host in hosts:
            verdict = decide_support(host)
            for emb in [verdict.embedding, *damaged_embeddings(rng, host, verdict.embedding)]:
                for pattern in PATTERN_ORDER:
                    got = verify_embedding(host, pattern, emb)
                    assert got is verify_embedding_by_adjacency(host, pattern, emb), (host, emb)
                    answers.append(got)
        assert answers.count(True) > len(hosts) and answers.count(False) > 1000
