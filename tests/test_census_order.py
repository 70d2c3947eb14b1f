"""The census counts along a small-frontier edge order and finds its example in the same pass.

The reference is the sorted-order DP it replaced, kept verbatim as
corpus_util.frontier_dp_sorted; the judge on large sparse hosts is
decide_support.
"""

import random

import pytest

from corpus_util import (
    acceptance_corpus,
    atlas_graphs,
    frontier_dp_sorted,
    ladder,
    small_frontier_order_by_scan,
    strip,
)
from satminors import SimpleGraph, census, decide_support, fixture_graph, solve
from satminors.census import _count, _slot_layout, _small_frontier_order, _transitions, formula_at
from satminors.fixtures import CONFIG_CODES
from satminors.minors import HostTooLarge

RANDOM_SEED = 20261019


def _fixtures_up_to_12_edges() -> list[SimpleGraph]:
    names = (
        ["c3", "k4", "k4-e", "butterfly", "bowtie", "book", "square-butterfly"]
        + [f"cn:{k}" for k in range(3, 13)]
        + [f"hills:{n}" for n in range(1, 5)]
        + [f"config:{code}" for code in CONFIG_CODES]
    )
    graphs = [fixture_graph(name) for name in names]
    assert all(len(g.edges) <= 12 for g in graphs)
    return graphs


def _random_graphs(count: int) -> list[SimpleGraph]:
    rng = random.Random(RANDOM_SEED)
    graphs = []
    for _ in range(count):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        graphs.append(SimpleGraph.of(rng.sample(pairs, rng.randint(1, min(12, len(pairs))))))
    return graphs


def _path(ids: list[int]) -> list[tuple[int, int]]:
    return list(zip(ids, ids[1:]))


def _length_ladder(n: int) -> SimpleGraph:
    """The 2 x n ladder labelled along its length: rung i joins 2i - 1 and 2i."""
    rails = _path(list(range(1, 2 * n, 2))) + _path(list(range(2, 2 * n + 1, 2)))
    return SimpleGraph.of(rails + [(2 * i - 1, 2 * i) for i in range(1, n + 1)])


def _theta(*lengths: int) -> SimpleGraph:
    """Hubs 1 and 2 joined by paths of the given edge counts, ids ascending along each."""
    edges, top = [], 2
    for k in lengths:
        edges += _path([1, *range(top + 1, top + k), 2])
        top += k - 1
    return SimpleGraph.of(edges)


def _dumbbell(a: int, p: int, b: int) -> SimpleGraph:
    """Cycles of a and b edges joined by a path of p edges (p = 0: a figure-eight)."""
    first, second = list(range(1, a + 1)), list(range(a + p, a + p + b))
    edges = _path(first) + [(1, a)] + _path(list(range(a, a + p + 1))) + _path(second)
    return SimpleGraph.of(edges + [(second[0], second[-1])])


def _structural_verdict(g: SimpleGraph) -> bool:
    """decide_support's answer with no evidence search: cap 0 refuses every qualifying component."""
    try:
        return decide_support(g, cap=0).supports_unsat
    except HostTooLarge:
        return True


class TestSignFlipOrbits:
    """Flipping one variable's sign in every clause maps the sentences on g one
    to one and keeps satisfiability, so each orbit holds 2**V sentences, V the
    vertices with an edge."""

    @pytest.fixture(scope="class")
    def reports(self) -> list:
        return [census(g, cap=21) for g in atlas_graphs() + _random_graphs(300)]

    def test_counts_are_multiples_of_the_orbit_size(self, reports):
        assert census(fixture_graph("butterfly")).unsat_count == 2**5
        for r in reports:
            orbit = 2 ** len({x for e in r.graph.edges for x in e})
            assert r.sat_count % orbit == 0 and r.unsat_count % orbit == 0, r.graph

    def test_example_is_positive_at_each_vertex_first_edge(self, reports):
        # the first unsatisfiable sentence leads its orbit: flipping a vertex
        # negative at its first edge would give a smaller one
        for r in reports:
            if r.example_unsat is None:
                continue
            clause = {tuple(abs(x) for x in c): c for c in r.example_unsat.clauses}
            seen: set[int] = set()
            for u, v in r.graph.sorted_edges():
                lit_u, lit_v = clause[u, v]
                assert (u in seen or lit_u > 0) and (v in seen or lit_v > 0), r.graph
                seen.update((u, v))


class TestAgainstSortedDp:
    def test_counts_and_first_example_match(self):
        graphs = (
            acceptance_corpus()
            + _fixtures_up_to_12_edges()
            + _random_graphs(300)
            + [ladder(n) for n in range(2, 8)]
        )
        for g in graphs:
            edges = g.sorted_edges()
            sat, unsat, first = frontier_dp_sorted(edges)
            report = census(g, cap=len(edges))
            example = None if first is None else formula_at(edges, first)
            assert (report.sat_count, report.unsat_count, report.example_unsat) == (
                sat,
                unsat,
                example,
            ), g
            # neither the counts nor the example depend on the order walked,
            # whichever one census picked
            for order in (edges, _small_frontier_order(edges)):
                transitions = _transitions(edges, order, _slot_layout(order))
                assert _count(transitions) == (sat, unsat, first), g

    def test_greedy_order_is_narrow_on_rung_labelled_ladders(self):
        for n in range(3, 13):
            edges = ladder(n).sorted_edges()
            order = _small_frontier_order(edges)
            assert sorted(order) == edges
            assert _slot_layout(order)[1] <= 3 < _slot_layout(edges)[1]

    def test_greedy_order_matches_the_scan(self):
        graphs = _random_graphs(300) + [ladder(n) for n in (2, 3, 7, 12, 40, 101)]
        graphs += [strip(n) for n in (5, 30)] + [fixture_graph(f"hills:{n}") for n in (3, 9)]
        for g in graphs:
            edges = g.sorted_edges()
            assert _small_frontier_order(edges) == small_frontier_order_by_scan(edges), g


class TestAgreesWithDecider:
    """Census and decider agree on hosts whose sorted order is too wide to walk."""

    def _agree(self, g: SimpleGraph, supports: bool) -> None:
        report = census(g, cap=len(g.edges))
        assert (report.unsat_count > 0) == supports, g
        if report.example_unsat is not None:
            assert not solve(report.example_unsat).satisfiable

    def test_ladders_and_hills(self):
        hosts = [ladder(n) for n in range(6, 13)] + [_length_ladder(n) for n in range(5, 9)]
        hosts += [fixture_graph(f"hills:{n}") for n in range(6, 16)]
        hosts += [strip(n) for n in range(6, 25)]
        for g in hosts:
            self._agree(g, decide_support(g).supports_unsat)

    def test_wide_ladders(self):
        # The sorted order of ladder(n) is n + 1 slots wide; the census walks
        # the greedy one.  The evidence search takes seconds here.
        for n in range(13, 41):
            self._agree(ladder(n), _structural_verdict(ladder(n)))

    def test_strips_and_hills_of_over_100_edges(self):
        # Each has more than decide_support's default cap of 64 vertices, so
        # the verdict comes without the evidence search.
        hosts = [strip(n) for n in (66, 80, 101)]
        hosts += [fixture_graph(f"hills:{n}") for n in (34, 40, 50)]
        assert all(len(g.edges) >= 100 and len(g.vertices) > 64 for g in hosts)
        for g in hosts:
            self._agree(g, _structural_verdict(g))

    def test_long_length_labelled_ladders(self):
        # The evidence search on these takes 0.3 s at n = 10 and grows about
        # x2.4 a rung, so the decider answers here without it.
        for n in range(9, 31):
            self._agree(_length_ladder(n), _structural_verdict(_length_ladder(n)))

    def test_long_thetas_dumbbells_and_figure_eights(self):
        hosts = [_theta(13, 14, 15), _theta(30, 33, 37)]
        hosts += [_dumbbell(15, 10, 15), _dumbbell(40, 20, 40), _dumbbell(3, 94, 3)]
        hosts += [_dumbbell(20, 0, 20), _dumbbell(50, 0, 50)]
        assert all(40 <= len(g.edges) <= 100 for g in hosts)
        for g in hosts:
            self._agree(g, decide_support(g, cap=len(g.vertices)).supports_unsat)


def test_first_example_deeper_than_the_recursion_limit():
    # A 1101-edge cycle with ascending ids, then a butterfly on higher ids:
    # every cycle edge of the first unsatisfiable sentence is PP, so its
    # first empty set comes after 1101 edges.  A path would be peeled away
    # before the count.
    cycle = _path(list(range(1, 1102))) + [(1, 1101)]
    butterfly = [(1102, 1103), (1102, 1104), (1103, 1104), (1104, 1105), (1104, 1106), (1105, 1106)]
    g = SimpleGraph.of(cycle + butterfly)
    report = census(g, cap=1200)
    assert report.unsat_count > 0
    assert not solve(report.example_unsat).satisfiable
    assert report.example_unsat.clauses[:1101] == formula_at(sorted(cycle), 0).clauses
