import random
import time

import pytest

from corpus_util import (
    acceptance_corpus,
    ci_subsample,
    decide_support_by_search,
    find_topological_minor_unpruned,
    ladder,
    random_sparse_graph,
    simple_paths_recursive,
)
from satminors import (
    Embedding,
    Pattern,
    Reason,
    SimpleGraph,
    Verdict,
    connected_components,
    cut_vertices,
    decide_support,
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
from satminors.minors import (
    PATTERN_ORDER,
    HostTooLarge,
    _core_has_cut_vertex,
    _has_book,
    _has_k4,
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


class TestStructuralExistence:
    """_has_k4 and _has_book answer exactly as the search does."""

    def assert_matches_search(self, graphs) -> tuple[int, int]:
        k4 = [_has_k4(g) for g in graphs]
        book = [_has_book(g) for g in graphs]
        assert k4 == [find_topological_minor(g, Pattern.K4) is not None for g in graphs]
        assert book == [find_topological_minor(g, Pattern.BOOK) is not None for g in graphs]
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


class TestSearchOnce:
    @pytest.mark.parametrize(
        "name", ["hills:16", "hills:24", "ladder:8"] + [f"book:{i}" for i in range(9)]
    )
    def test_one_search_per_verdict(self, monkeypatch, name):
        head, _, arg = name.partition(":")
        if head == "ladder":
            g = ladder(int(arg))
        elif head == "book":
            g = subdivided_books()[int(arg)]
        else:
            g = fixture_graph(name)
        # every g here is built afresh: a verdict cached on a graph an
        # earlier test decided would skip the searches counted below
        calls = []
        search = minors.find_topological_minor

        def counted(host, pattern, cap=64):
            emb = search(host, pattern, cap=cap)
            calls.append((pattern, emb is not None))
            return emb

        monkeypatch.setattr(minors, "find_topological_minor", counted)
        start = time.perf_counter()
        verdict = decide_support(g)
        assert time.perf_counter() - start < 0.1
        # the ladder's verdict is the bowtie; it has maximum degree 3, so the
        # butterfly search before it finds no candidate for the degree-4
        # middle vertex and returns None without routing
        missed = [(Pattern.BUTTERFLY, False)] if head == "ladder" else []
        assert calls == missed + [(verdict.pattern, True)]
        assert verify_embedding(g, verdict.pattern, verdict.embedding)

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

        monkeypatch.setattr(minors, "_MAY_EMBED", dict.fromkeys(PATTERN_ORDER, refuse))
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
        g = subdivided_books()[0]
        searches = self.count_searches(monkeypatch)
        at_64 = decide_support(g)
        at_100 = decide_support(g, cap=100)
        assert searches == [Pattern.BOOK, Pattern.BOOK]
        assert at_64 == at_100 and at_64 is not at_100
        assert decide_support(g, cap=64) is at_64 and decide_support(g, cap=100) is at_100
        assert len(searches) == 2

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


class TestRankTwoShape:
    """_core_has_cut_vertex answers as cut_vertices(two_core(c)) does."""

    def test_acceptance_corpus(self):
        comps = [c for g in acceptance_corpus() for c in connected_components(g)]
        rank_two = [c for c in comps if len(c.edges) - len(c.vertices) + 1 == 2]
        got = [_core_has_cut_vertex(c) for c in rank_two]
        assert got == [bool(cut_vertices(two_core(c))) for c in rank_two]
        assert sum(got) > 20 and len(got) - sum(got) > 100

    @pytest.mark.parametrize("n", [10, 30, 100, 400, 1500])
    def test_generated_cores_with_trees(self, n):
        rng = random.Random(20261021 + n)
        shapes = {"figure-eight": True, "dumbbell": True, "theta": False, "theta-edge": False}
        for shape, expected in shapes.items():
            for _ in range(4):
                g = rank_two_graph(rng, shape, n)
                assert len(g.vertices) == n and len(g.edges) == n + 1
                assert bool(cut_vertices(two_core(g))) is expected, (shape, g)
                assert _core_has_cut_vertex(g) is expected, (shape, g)

    def test_bare_cores(self):
        # no trees hung on: every vertex is in the core
        rng = random.Random(20261022)
        for shape in ("figure-eight", "dumbbell", "theta", "theta-edge"):
            for _ in range(10):
                g = rank_two_graph(rng, shape, 40, trees=False)
                assert _core_has_cut_vertex(g) == bool(cut_vertices(two_core(g))), (shape, g)
