"""Property-based checks for the algebraic invariants."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import brute_force_satisfiable
from satminors import (
    SimpleGraph,
    SubstitutionStep,
    apply_assignment,
    connected_components,
    contract_edge,
    cut_vertices,
    cycle_rank,
    edgelist_to_text,
    is_subgraph,
    parse_edgelist,
    reduce,
    solve,
    subdivide_edge,
    substitute,
    to_simple,
    two_core,
)
from satminors.formula import Literal
from satminors.simplify import SimplifyResult, replay_trace

# raw clauses as signed ints over a small variable pool
_literals = st.integers(min_value=1, max_value=6).flatmap(
    lambda v: st.sampled_from([v, -v])
)
_clauses = st.one_of(
    st.tuples(_literals),
    st.tuples(_literals, _literals),
)
raw_sentences = st.lists(_clauses, max_size=14)


@given(raw_sentences)
def test_reduce_idempotent(raw):
    once = reduce(raw)
    if once.is_nontrivial:
        again = reduce([list(c.literals) for c in once.clauses])
        assert again == once


@given(raw_sentences, st.permutations(range(14)))
def test_clause_order_immaterial(raw, perm):
    shuffled = [raw[i] for i in perm if i < len(raw)]
    if len(shuffled) == len(raw):
        assert reduce(raw) == reduce(shuffled)


@given(raw_sentences, st.booleans(), st.booleans())
def test_substitute_commutes_on_distinct_targets(raw, val1, val2):
    s = reduce(raw)
    p = SubstitutionStep(1, val1)
    q = SubstitutionStep(2, val2)
    assert substitute(substitute(s, p), q) == substitute(substitute(s, q), p)


@given(raw_sentences, st.integers(min_value=0, max_value=63))
def test_total_assignment_is_constant(raw, bits):
    s = reduce(raw)
    asg = {v: bool((bits >> (v - 1)) & 1) for v in range(1, 7)}
    out = apply_assignment(s, asg)
    assert out.is_true or out.is_false


@given(st.integers(min_value=1, max_value=9), st.booleans())
def test_negation_involution(var, positive):
    lit = Literal(var, positive)
    assert lit.negate().negate() == lit
    assert lit.negate() != lit


@settings(deadline=None)
@given(raw_sentences)
def test_solver_matches_brute_force(raw):
    s = reduce(raw)
    assert solve(s).satisfiable == brute_force_satisfiable(s)


@settings(deadline=None)
@given(raw_sentences)
def test_simplification_preserves_verdict(raw):
    s = reduce(raw)
    out = to_simple(s)
    assert replay_trace(s, out.trace) == out.cnf
    verdict = solve(s).satisfiable
    if out.result is SimplifyResult.UNSATISFIABLE:
        assert not verdict
    elif out.result is SimplifyResult.TRIVIALLY_TRUE:
        assert verdict
    else:
        assert solve(out.cnf).satisfiable == verdict


# graphs as edge subsets over up to 7 vertices
graph_edges = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda e: e[0] != e[1]),
    max_size=12,
)


def build_graph(edges) -> SimpleGraph:
    return SimpleGraph.of(edges, isolated=range(1, 8))


@given(graph_edges)
def test_two_core_idempotent_and_degree_bound(edges):
    g = build_graph(edges)
    core = two_core(g)
    assert two_core(core) == core
    assert is_subgraph(core, g)
    assert all(core.degree(v) >= 2 for v in core.vertices)


@given(graph_edges, st.integers(0, 100))
def test_subdivision_preserves_cycle_rank(edges, pick):
    g = build_graph(edges)
    if not g.edges:
        return
    e = g.sorted_edges()[pick % len(g.edges)]
    h = subdivide_edge(g, e)
    assert cycle_rank(h) == cycle_rank(g)
    assert len(h.vertices) == len(g.vertices) + 1


@given(graph_edges, st.integers(0, 100))
def test_contraction_preserves_cycle_rank(edges, pick):
    g = build_graph(edges)
    usable = [
        (u, v)
        for u, v in g.sorted_edges()
        if not set(g.neighbors(u)) & set(g.neighbors(v))
    ]
    if not usable:
        return
    e = usable[pick % len(usable)]
    assert cycle_rank(contract_edge(g, e)) == cycle_rank(g)


@given(graph_edges)
def test_cut_vertices_match_networkx(edges):
    g = build_graph(edges)
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    assert cut_vertices(g) == set(nx.articulation_points(nxg))


@given(graph_edges)
def test_components_partition(edges):
    g = build_graph(edges)
    comps = connected_components(g)
    assert sorted(v for c in comps for v in c.vertices) == sorted(g.vertices)
    assert sum(len(c.edges) for c in comps) == len(g.edges)
    assert cycle_rank(g) == sum(cycle_rank(c) for c in comps)


@given(graph_edges, st.sets(st.integers(1, 12), max_size=5))
def test_edgelist_text_round_trips_with_isolated_vertices(edges, isolated):
    g = SimpleGraph.of(edges, isolated=isolated)
    assert parse_edgelist(edgelist_to_text(g)) == g
