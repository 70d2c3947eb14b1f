import itertools
import random
from collections import Counter

import pytest

from corpus_util import (
    acceptance_corpus,
    atlas_graphs,
    brute_force_satisfiable,
    extend_to_supergraph_by_clause_of,
    lift_subdivision_by_clause_of,
    perfbench_analyze_graphs,
    support_graph_by_multigraph,
    witness_by_clause_of,
    witness_by_lifting,
)
from satminors import (
    Cnf2,
    Pattern,
    SimpleGraph,
    base_formula,
    contract_edge,
    contract_witness,
    decide_support,
    edge,
    extend_to_supergraph,
    fixture_graph,
    lift_subdivision,
    parse_dimacs,
    pattern_graph,
    solve,
    subdivide_edge,
    support_graph,
    synthesize_witness,
    unsubdivide_witness,
    witness_to_dimacs,
)
from satminors import witness
from satminors.fixtures import CONFIG_CODES
from satminors.graph import EdgeInTriangle
from satminors.witness import (
    DegreeNotTwo,
    EdgeAbsentInSupport,
    NotASubgraph,
    VariableCollision,
    WitnessError,
)


class TestBaseFormulas:
    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_unsatisfiable_and_exactly_supported(self, pattern):
        bf = base_formula(pattern)
        assert not solve(bf.cnf).satisfiable
        assert not brute_force_satisfiable(bf.cnf)
        assert support_graph(bf.cnf) == pattern_graph(pattern)

    def test_bowtie_base_matches_overview_sentence(self):
        overview = Cnf2.from_ints(
            [[1, 2], [-1, 3], [-2, 3], [-3, 4], [-4, 5], [-4, 6], [-5, -6]]
        )
        assert base_formula(Pattern.BOWTIE).cnf == overview


class TestLiftSubdivision:
    def test_butterfly_wing_edge(self):
        s = base_formula(Pattern.BUTTERFLY).cnf
        lifted = lift_subdivision(s, (1, 2), 6)
        assert len(lifted.clauses) == 7
        assert not solve(lifted).satisfiable
        assert support_graph(lifted) == subdivide_edge(support_graph(s), (1, 2))

    def test_single_clause(self):
        s = Cnf2.from_ints([[1, 2]])
        lifted = lift_subdivision(s, (1, 2), 3)
        assert lifted == Cnf2.from_ints([[1, 3], [-3, 2]])
        assert solve(lifted).satisfiable

    def test_negative_polarity_kept(self):
        s = Cnf2.from_ints([[-1, 2]])
        lifted = lift_subdivision(s, (1, 2), 3)
        assert lifted == Cnf2.from_ints([[-1, 3], [-3, 2]])

    def test_preserves_verdict_both_ways(self):
        rng = random.Random(88)
        for _ in range(300):
            nv = rng.randint(2, 6)
            raw = []
            for _ in range(rng.randint(1, 10)):
                a, b = rng.sample(range(1, nv + 1), 2)
                raw.append([rng.choice([1, -1]) * a, rng.choice([1, -1]) * b])
            s = Cnf2.from_ints(raw)
            if not s.is_nontrivial:
                continue
            if any(len(c.support) != 2 for c in s.clauses):
                continue
            if len(set(c.support for c in s.clauses)) != len(s.clauses):
                continue
            g = support_graph(s)
            e = rng.choice(g.sorted_edges())
            lifted = lift_subdivision(s, e, max(g.vertices) + 1)
            assert solve(lifted).satisfiable == solve(s).satisfiable

    def test_errors(self):
        s = base_formula(Pattern.BUTTERFLY).cnf
        with pytest.raises(EdgeAbsentInSupport):
            lift_subdivision(s, (1, 5), 9)
        with pytest.raises(VariableCollision):
            lift_subdivision(s, (1, 2), 3)

    def test_non_simple_sentence_raises_a_witness_error(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2]])
        with pytest.raises(WitnessError, match=r"sentence is not simple at \(1, 2\)"):
            lift_subdivision(s, (1, 2), 3)

    @pytest.mark.parametrize("w", [-3, 0])
    def test_fresh_variable_must_be_positive(self, w):
        # -3 would give (1 -3)(2 3)(-2 3)(3 4): two clauses on {2, 3}
        s = Cnf2.from_ints([[1, 2], [-2, 3], [3, 4]])
        with pytest.raises(WitnessError, match="not a positive id"):
            lift_subdivision(s, (1, 2), w)


class TestUnsubdivide:
    def test_round_trip_is_identity(self):
        s = base_formula(Pattern.BOWTIE).cnf
        for e in support_graph(s).sorted_edges():
            w = 7
            lifted = lift_subdivision(s, e, w)
            assert unsubdivide_witness(lifted, w, *e) == s

    def test_same_sign_pair(self):
        s = Cnf2.from_ints([[1, 3], [3, 2], [1, -2]])
        merged = unsubdivide_witness(s, 3, 1, 2)
        assert merged == Cnf2.from_ints([[1, 2], [1, -2]])

    def test_mixed_sign_pair(self):
        s = Cnf2.from_ints([[1, 3], [-3, 2], [1, -2]])
        merged = unsubdivide_witness(s, 3, 1, 2)
        assert merged == Cnf2.from_ints([[1, 2], [1, -2]])

    def test_unsat_preserved(self):
        lifted = lift_subdivision(base_formula(Pattern.K4).cnf, (1, 2), 5)
        merged = unsubdivide_witness(lifted, 5, 1, 2)
        assert not solve(merged).satisfiable

    def test_degree_errors(self):
        s = Cnf2.from_ints([[1, 3], [-3, 2], [3, 4]])
        with pytest.raises(DegreeNotTwo):
            unsubdivide_witness(s, 3, 1, 2)
        with pytest.raises(DegreeNotTwo):
            unsubdivide_witness(Cnf2.from_ints([[1, 3], [-3, 2]]), 3, 1, 5)


class TestExtendToSupergraph:
    def test_pendant_edge(self):
        s = base_formula(Pattern.BUTTERFLY).cnf
        host = SimpleGraph.of(sorted(support_graph(s).edges) + [(5, 6)])
        extended = extend_to_supergraph(s, host)
        assert support_graph(extended) == host
        assert not solve(extended).satisfiable
        assert Cnf2.from_ints([[5, 6]]).clauses[0] in extended.clauses

    def test_identity_on_own_support(self):
        s = base_formula(Pattern.K4).cnf
        assert extend_to_supergraph(s, support_graph(s)) == s

    def test_not_a_subgraph(self):
        s = base_formula(Pattern.K4).cnf
        with pytest.raises(NotASubgraph):
            extend_to_supergraph(s, fixture_graph("c3"))

    def test_isolated_target_vertex_rejected(self):
        s = Cnf2.from_ints([[1, 2]])
        host = SimpleGraph.of([(1, 2)], isolated=[5])
        with pytest.raises(NotASubgraph):
            extend_to_supergraph(s, host)

    def test_satisfiable_input_still_extends(self):
        s = Cnf2.from_ints([[1, 2]])
        host = fixture_graph("c3")
        extended = extend_to_supergraph(s, host)
        assert support_graph(extended) == host


class TestContractWitness:
    def test_bowtie_bridge(self):
        s = base_formula(Pattern.BOWTIE).cnf
        contracted = contract_witness(s, (3, 4), 7)
        assert len(contracted.clauses) == 6
        assert not solve(contracted).satisfiable
        assert support_graph(contracted) == contract_edge(support_graph(s), (3, 4))

    def test_path_sentence(self):
        s = Cnf2.from_ints([[1, 2], [-2, 3]])
        contracted = contract_witness(s, (2, 3), 4)
        # supported on the contracted path; the surviving clause pairs 1
        # against the fresh variable with 2's polarity from the (2,3) clause
        assert contracted == Cnf2.from_ints([[1, -4]])
        assert support_graph(contracted) == contract_edge(support_graph(s), (2, 3))
        assert solve(contracted).satisfiable

    def test_triangle_edge_rejected(self):
        s = base_formula(Pattern.BUTTERFLY).cnf
        with pytest.raises(EdgeInTriangle):
            contract_witness(s, (1, 2), 9)

    def test_absent_edge_rejected(self):
        s = base_formula(Pattern.BOWTIE).cnf
        with pytest.raises(EdgeAbsentInSupport):
            contract_witness(s, (1, 5), 9)

    def test_collision_rejected(self):
        s = base_formula(Pattern.BOWTIE).cnf
        with pytest.raises(VariableCollision):
            contract_witness(s, (3, 4), 2)

    @pytest.mark.parametrize("w", [-7, 0])
    def test_fresh_variable_must_be_positive(self, w):
        s = base_formula(Pattern.BOWTIE).cnf
        with pytest.raises(WitnessError, match="not a positive id"):
            contract_witness(s, (3, 4), w)

    def test_unsat_preserved_on_random_unsat_hosts(self):
        rng = random.Random(91)
        checked = 0
        for _ in range(80):
            host = fixture_graph(rng.choice(["butterfly", "bowtie", "k4", "book"]))
            for _ in range(rng.randint(1, 3)):
                host = subdivide_edge(host, rng.choice(host.sorted_edges()))
            s = synthesize_witness(host)
            g = support_graph(s)
            admissible = [
                e
                for e in g.sorted_edges()
                if not set(g.neighbors(e[0])) & set(g.neighbors(e[1]))
            ]
            if not admissible:
                continue
            e = rng.choice(admissible)
            contracted = contract_witness(s, e, max(s.variables()) + 1)
            assert not solve(contracted).satisfiable
            checked += 1
        assert checked > 50


class TestSynthesizeWitness:
    def test_butterfly(self):
        g = fixture_graph("butterfly")
        w = synthesize_witness(g)
        assert len(w.clauses) == 6
        assert not solve(w).satisfiable
        assert support_graph(w) == g

    def test_sentence_sorted_once(self, monkeypatch):
        # the clauses go through one _canonical pass, with no Clause or
        # sentence built before it
        sorts = []
        canonical = witness._canonical

        def counted(*args):
            sorts.append(args)
            return canonical(*args)

        monkeypatch.setattr(witness, "_canonical", counted)
        g = fixture_graph("hills:4")
        w = synthesize_witness(g)
        assert len(sorts) == 1 and len(w.clauses) == len(g.edges)
        assert w == Cnf2.of(w.clauses) and support_graph(w) == g

    def test_triangle_has_none(self):
        assert synthesize_witness(fixture_graph("c3")) is None
        assert synthesize_witness(fixture_graph("k4-e")) is None

    def test_hills_chain(self):
        for n in (2, 3, 4):
            g = fixture_graph(f"hills:{n}")
            w = synthesize_witness(g)
            assert not solve(w).satisfiable
            assert support_graph(w) == g
        assert len(synthesize_witness(fixture_graph("hills:4")).variables()) == 9

    @pytest.mark.parametrize("code", CONFIG_CODES)
    def test_three_triangle_configurations(self, code):
        g = fixture_graph(f"config:{code}")
        w = synthesize_witness(g)
        assert w is not None
        assert not solve(w).satisfiable
        assert support_graph(w) == g
        assert len(set(c.support for c in w.clauses)) == len(w.clauses)

    def test_subdivided_hosts(self):
        rng = random.Random(92)
        for _ in range(25):
            g = fixture_graph(rng.choice(["butterfly", "bowtie", "k4", "book"]))
            for _ in range(rng.randint(1, 4)):
                g = subdivide_edge(g, rng.choice(g.sorted_edges()))
            w = synthesize_witness(g)
            assert not solve(w).satisfiable
            assert support_graph(w) == g

    def test_matches_decide_support(self):
        for name in ["c3", "cn:6", "k4-e", "square-butterfly", "butterfly", "book"]:
            g = fixture_graph(name)
            assert (synthesize_witness(g) is None) == (not decide_support(g).supports_unsat)

    def test_matches_rename_and_lift_oracle(self):
        names = (
            ["c3", "k4", "k4-e", "butterfly", "bowtie", "book", "square-butterfly"]
            + [f"cn:{k}" for k in range(3, 9)]
            + [f"hills:{n}" for n in range(1, 5)]
            + [f"config:{code}" for code in CONFIG_CODES]
        )
        graphs = [fixture_graph(n) for n in names]
        for name in ("butterfly", "bowtie", "k4", "book"):
            g = fixture_graph(name)
            graphs += [subdivide_edge(g, e) for e in g.sorted_edges()]
        qualifying = [g for g in acceptance_corpus() if decide_support(g).supports_unsat]
        assert len(qualifying) > 100
        # the benchmark's longest embedding paths
        graphs += [
            g
            for seed in (1, 2, 3)
            for g in perfbench_analyze_graphs(
                seed, ("subdivided-k4", "subdivided-book", "figure-eight"))
        ]
        for g in graphs + qualifying:
            assert synthesize_witness(g) == witness_by_lifting(g), g


def outcome(build, g: SimpleGraph):
    """repr of what build(g) returns, or the type and message of what it raises."""
    try:
        return repr(build(g))
    except Exception as exc:
        return type(exc), str(exc)


def random_simple_sentence(rng: random.Random) -> Cnf2:
    """A nontrivial sentence of 1 to 9 two-literal clauses, at most one per pair of variables."""
    every = list(itertools.combinations(range(1, rng.randint(2, 7) + 1), 2))
    pairs = rng.sample(every, rng.randint(1, min(9, len(every))))
    return Cnf2.from_ints([[rng.choice([1, -1]) * a, rng.choice([1, -1]) * b] for a, b in pairs])


class TestAgainstReferenceTransports:
    """lift_subdivision and extend_to_supergraph against the versions that
    built each new clause by Clause.of: the same sentence, or the same
    exception type and message, on seeded random simple sentences."""

    def test_lift_subdivision(self):
        rng = random.Random(2601)
        kinds = Counter()
        for _ in range(600):
            s = random_simple_sentence(rng)
            used = sorted(s.variables())
            top = used[-1]
            if rng.random() < 0.7:
                e = rng.choice(support_graph(s).sorted_edges())
            else:
                e = tuple(rng.sample(range(1, top + 2), 2))
            w = rng.choice([top + 1, top + rng.randint(2, 9), rng.choice(used)])
            got = outcome(lambda s: lift_subdivision(s, e, w), s)
            assert got == outcome(lambda s: lift_subdivision_by_clause_of(s, e, w), s), (s, e, w)
            kinds[got[0] if isinstance(got, tuple) else "lifted"] += 1
        assert kinds["lifted"] > 100
        assert kinds[VariableCollision] > 100 and kinds[EdgeAbsentInSupport] > 20

    def test_extend_to_supergraph(self):
        rng = random.Random(2602)
        kinds = Counter()
        for _ in range(600):
            s = random_simple_sentence(rng)
            if rng.random() < 0.05:
                s = rng.choice([Cnf2.true(), Cnf2.false()])
            edges = set(support_graph(s).edges) if s.is_nontrivial else set()
            top = max(s.variables(), default=2)
            if edges and rng.random() < 0.2:
                # h is no supergraph unless the edge is drawn again below
                edges.remove(rng.choice(sorted(edges)))
            for _ in range(rng.randint(0, 4)):
                edges.add(edge(*rng.sample(range(1, top + 3), 2)))
            isolated = [top + 3] if rng.random() < 0.2 else []
            h = SimpleGraph.of(edges, isolated=isolated)
            got = outcome(lambda s: extend_to_supergraph(s, h), s)
            assert got == outcome(lambda s: extend_to_supergraph_by_clause_of(s, h), s), (s, h)
            kinds[got[0] if isinstance(got, tuple) else "extended"] += 1
        assert kinds["extended"] > 200 and kinds[NotASubgraph] > 100


class TestAgainstClauseOf:
    """synthesize_witness and support_graph against the code they replaced:
    each clause built by Clause.of, the support read through the multigraph."""

    CORPORA = {
        "acceptance": acceptance_corpus,
        "atlas": atlas_graphs,
        "perfbench": lambda: [
            g
            for seed in (1, 2, 3)
            for g in perfbench_analyze_graphs(
                seed, ("subdivided-k4", "subdivided-book", "figure-eight"))
        ],
    }

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_equal_witnesses_and_supports(self, corpus):
        graphs = self.CORPORA[corpus]()
        got = [outcome(synthesize_witness, g) for g in graphs]
        assert got == [outcome(witness_by_clause_of, g) for g in graphs]
        # an atlas graph may have isolated vertices, which no witness covers
        stripped = [SimpleGraph.of(g.edges) for g in graphs]
        witnesses = [w for w in map(synthesize_witness, stripped) if w is not None]
        assert len(witnesses) > 100
        assert [repr(support_graph(w)) for w in witnesses] == [
            repr(support_graph_by_multigraph(w)) for w in witnesses]


class TestWitnessDimacs:
    def test_round_trip_and_mapping(self):
        g = fixture_graph("hills:3")
        w = synthesize_witness(g)
        text = witness_to_dimacs(w)
        parsed = parse_dimacs(text)
        assert not solve(parsed).satisfiable
        assert "var 1 = vertex 1" in text
        nvars = len(w.variables())
        assert f"p cnf {nvars} {len(w.clauses)}" in text
