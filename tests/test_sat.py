import random
from collections import Counter

import pytest

from corpus_util import (
    brute_force_satisfiable,
    check_model_by_literals,
    random_cnf,
    random_multigraph_raw,
    solve_with_sorted_rows,
    tarjan_components_by_edge_positions,
)
from test_pinned import _sentence_transcript
from satminors import (
    Clause,
    Cnf2,
    Literal,
    apply_assignment,
    check_model,
    eliminate_units,
    reduce,
    rename_variables,
    solve,
)
from satminors import sat

S1 = Cnf2.from_ints([[1, 2], [-1, 3], [-2, 3], [-3, 4], [-3, 5], [-4, -5]])
S2 = Cnf2.from_ints([[1, 2], [-1, 3], [-2, 3], [-3, 4], [-4, 5], [-4, 6], [-5, -6]])
S3 = Cnf2.from_ints([[1, 2], [1, 3], [-1, 4], [-2, -3], [2, -4], [3, -4]])
S4 = Cnf2.from_ints([[1, 2], [-1, 4], [2, 3], [-2, 4], [-2, 5], [-3, -4], [-4, -5]])


def seeded_sentences(seed: int) -> list[Cnf2]:
    """Sentences with units and repeated pairs; the same with ids scaled by 1000;
    and the same on a random sparse sample of ids, which reorders their clauses."""
    rng = random.Random(seed)
    base = [reduce(random_multigraph_raw(rng, 30, 60)) for _ in range(300)]
    scaled = [rename_variables(s, {v: 1000 * v for v in s.variables()}) for s in base]
    shuffled = []
    for s in base:
        old = sorted(s.variables())
        shuffled.append(rename_variables(s, dict(zip(old, rng.sample(range(1, 10**6), len(old))))))
    return [Cnf2.true(), Cnf2.false()] + base + scaled + shuffled


class TestKnownInstances:
    @pytest.mark.parametrize("cnf", [S1, S2, S3, S4], ids=["s1", "s2", "s3", "s4"])
    def test_base_unsatisfiable(self, cnf):
        result = solve(cnf)
        assert not result.satisfiable
        assert result.conflict_var in cnf.variables()
        assert not brute_force_satisfiable(cnf)

    def test_single_binary_clause(self):
        result = solve(Cnf2.from_ints([[1, 2]]))
        assert result.satisfiable
        assert check_model(Cnf2.from_ints([[1, 2]]), result.model)

    def test_every_triangle_sentence_satisfiable(self):
        edges = [(1, 2), (1, 3), (2, 3)]
        for code in range(4**3):
            clauses = []
            c = code
            for u, v in edges:
                bits = c & 3
                c >>= 2
                clauses.append(Clause((Literal(u, bits < 2), Literal(v, bits % 2 == 0))))
            assert solve(Cnf2.of(clauses)).satisfiable

    def test_unit_clauses(self):
        res = solve(Cnf2.from_ints([[1]]))
        assert res.satisfiable and res.model == {1: True}
        res = solve(Cnf2.from_ints([[1], [-1]]))
        assert not res.satisfiable and res.conflict_var == 1

    def test_constants(self):
        res = solve(Cnf2.true())
        assert res.satisfiable and res.model == {}
        res = solve(Cnf2.false())
        assert not res.satisfiable and res.conflict_var is None


class TestModelContract:
    def test_models_are_total_and_valid(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(1500):
            s = random_cnf(rng)
            res = solve(s)
            assert res.satisfiable == brute_force_satisfiable(s), s
            if res.satisfiable:
                assert set(res.model) == set(s.variables())
                assert check_model(s, res.model)
                checked += 1
        assert checked > 300

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(200):
            s = random_cnf(rng)
            assert solve(s) == solve(s)


class TestSolveMatchesSortedRows:
    def test_models_and_conflicts_match(self):
        verdicts = Counter()
        for s in seeded_sentences(20261021):
            got = solve(s)
            assert got == solve_with_sorted_rows(s), s
            verdicts[got.satisfiable] += 1
        assert min(verdicts.values()) > 100, verdicts


class TestConflictCertificate:
    def _propagates_to_false(self, s: Cnf2, lit: Literal) -> bool:
        extended = reduce([[l for l in c.literals] for c in s.clauses] + [[lit]])
        propagated, _ = eliminate_units(extended)
        return propagated.is_false

    @pytest.mark.parametrize("cnf", [S1, S2, S3, S4], ids=["s1", "s2", "s3", "s4"])
    def test_both_polarities_propagate_to_contradiction(self, cnf):
        var = solve(cnf).conflict_var
        assert self._propagates_to_false(cnf, Literal(var, True))
        assert self._propagates_to_false(cnf, Literal(var, False))

    def test_random_unsat_certificates(self):
        rng = random.Random(2024)
        seen = 0
        for _ in range(800):
            s = random_cnf(rng, max_vars=6)
            res = solve(s)
            if res.satisfiable or res.conflict_var is None:
                continue
            seen += 1
            assert self._propagates_to_false(s, Literal(res.conflict_var, True))
            assert self._propagates_to_false(s, Literal(res.conflict_var, False))
        assert seen > 100


class TestCheckModel:
    def test_examples(self):
        s = Cnf2.from_ints([[1, 2]])
        assert check_model(s, {1: False, 2: True})
        assert not check_model(s, {1: False, 2: False})
        assert check_model(Cnf2.true(), {})

    def test_partial_model_must_decide(self):
        s = Cnf2.from_ints([[1, 2], [-1, 2]])
        assert check_model(s, {2: True})
        assert not check_model(s, {1: True})

    def test_matches_apply_assignment(self):
        s = Cnf2.from_ints([[1, -2], [2, 3]])
        m = {1: True, 2: True, 3: False}
        assert check_model(s, m) == apply_assignment(s, m).is_true

    def test_matches_per_literal_loop(self):
        rng = random.Random(20261022)
        sentences = [Cnf2.true(), Cnf2.false()] + [random_cnf(rng, 10, 25) for _ in range(600)]
        verdicts = Counter()
        for s in sentences:
            variables = sorted(s.variables())
            model = solve(s).model or {v: rng.random() < 0.5 for v in variables}
            partial = {v: value for v, value in model.items() if rng.random() < 0.7}
            # keys below 1 that would satisfy a clause if read as literals
            below = {-v: not value for v, value in model.items()}
            below[0] = True
            models = [
                model,
                {v: int(value) for v, value in model.items()},
                partial,
                below,
                {**partial, **below},
                {**model, **{v: rng.random() < 0.5 for v in range(11, 40)}},
                {v: rng.choice([0, 1, None, "", "x"]) for v in range(1, 12) if rng.random() < 0.8},
                {},
            ]
            for m in models:
                got = check_model(s, m)
                assert got == check_model_by_literals(s, m), (s, m)
                verdicts[got] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_matches_apply_assignment_on_seeded_sentences(self):
        rng = random.Random(20261018)
        sentences = [Cnf2.true(), Cnf2.false()]
        sentences += [reduce(random_multigraph_raw(rng, 10, 25)) for _ in range(600)]
        verdicts = Counter()
        for s in sentences:
            variables = sorted(s.variables())
            model = solve(s).model or {v: rng.random() < 0.5 for v in variables}
            flip = rng.choice(variables) if variables else 1
            models = [
                model,
                {v: value != (v == flip) for v, value in model.items()},
                {v: value for v, value in model.items() if rng.random() < 0.7},
                {v: rng.random() < 0.5 for v in range(1, 12) if rng.random() < 0.8},
                {},
            ]
            for m in models:
                got = check_model(s, m)
                assert got == apply_assignment(s, m).is_true, (s, m)
                verdicts[got] += 1
        assert min(verdicts.values()) > 400, verdicts


class TestTarjanComponents:
    @staticmethod
    def implication_graphs(monkeypatch, run) -> list[list[list[int]]]:
        """The implication graphs that solve hands to the SCC pass while run() executes."""
        graphs = []
        original = sat._tarjan_components

        def recording(adj):
            graphs.append(adj)
            return original(adj)

        monkeypatch.setattr(sat, "_tarjan_components", recording)
        run()
        monkeypatch.undo()
        return graphs

    def test_matches_edge_position_oracle_on_random_implication_graphs(self, monkeypatch):
        rng = random.Random(20261018)
        sentences = [reduce(random_multigraph_raw(rng, 30, 60)) for _ in range(300)]
        graphs = self.implication_graphs(monkeypatch, lambda: [solve(s) for s in sentences])
        merged = 0
        for adj in graphs:
            expected = tarjan_components_by_edge_positions(adj)
            assert sat._tarjan_components(adj) == expected
            merged += max(Counter(expected).values()) >= 3
        assert merged > 100

    def test_implication_rows_come_sorted(self, monkeypatch):
        sentences = seeded_sentences(20261020)
        graphs = self.implication_graphs(monkeypatch, lambda: [solve(s) for s in sentences])
        graphs += self.implication_graphs(monkeypatch, _sentence_transcript)
        rows = [row for adj in graphs for row in adj]
        assert all(row == sorted(row) for row in rows)
        assert sum(len(row) >= 3 for row in rows) > 1000

    def test_matches_edge_position_oracle_on_pinned_sentences(self, monkeypatch):
        graphs = self.implication_graphs(monkeypatch, _sentence_transcript)
        assert len(graphs) > 400
        for adj in graphs:
            assert sat._tarjan_components(adj) == tarjan_components_by_edge_positions(adj)
