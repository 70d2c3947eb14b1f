"""The contract every satminors value type keeps.

Values are immutable and compare by their fields: equal fields give equal
values with equal hashes, a value of another class is never equal, and
assigning or deleting an attribute raises AttributeError.  They print as
they always have, except that an embedding's maps print in sorted key order,
so equal embeddings print alike.  They survive copy.deepcopy and pickle, and
their constructors reject what they always rejected.
"""

import copy
import json
import pickle

import pytest

from satminors.census import CensusReport
from satminors.fixtures import fixture_graph
from satminors.formula import Clause, Cnf2, CnfKind, Literal, SubstitutionStep
from satminors.graph import Multigraph, SimpleGraph
from satminors.minors import Embedding, Pattern, Reason, Verdict, decide_support
from satminors.sat import SolveResult
from satminors.simplify import SimplifyOutcome, SimplifyResult
from satminors.witness import BaseFormula

EMBEDDING = Embedding({1: 4, 2: 5}, {(1, 2): (4, 6, 5)})

# (class, its fields, a value's constructor arguments, the same value's repr,
# and arguments for a value that differs in one field)
CASES = [
    (Literal, ("var", "positive"), ((3,), {"positive": False}), "-3", ((3,), {})),
    (Cnf2, ("kind", "clauses"),
     ((CnfKind.NONTRIVIAL, (Clause.of(-1, 3), Clause.of(1, 2))), {}), "Cnf2(1 2)(-1 3)",
     ((CnfKind.NONTRIVIAL, (Clause.of(1, 2),)), {})),
    (SubstitutionStep, ("target", "replacement"), ((2, Literal(3, False)), {}), "2:=-3",
     ((2, True), {})),
    (SolveResult, ("satisfiable", "model", "conflict_var"), ((False,), {"conflict_var": 1}),
     "SolveResult(satisfiable=False, model=None, conflict_var=1)", ((False,), {})),
    (SolveResult, ("satisfiable", "model", "conflict_var"), ((True,), {"model": {1: True}}),
     "SolveResult(satisfiable=True, model={1: True}, conflict_var=None)",
     ((True,), {"model": {1: False}})),
    (CensusReport, ("graph", "total", "sat_count", "unsat_count", "example_unsat"),
     ((SimpleGraph.of([(1, 2)]), 4, 4, 0, None), {}),
     "CensusReport(graph=SimpleGraph<1,2|1-2>, total=4, sat_count=4, unsat_count=0,"
     " example_unsat=None)",
     ((SimpleGraph.of([(1, 2)], isolated=[3]), 4, 4, 0, None), {})),
    (SimpleGraph, ("vertices", "edges"), (({1, 2, 3}, [(2, 1)]), {}), "SimpleGraph<1,2,3|1-2>",
     (({1, 2, 3}, [(2, 3)]), {})),
    (Multigraph, ("vertices", "edges"), (({1, 2}, [(2, 1), (1, 2)]), {}),
     "Multigraph(vertices=frozenset({1, 2}), edges=((1, 2), (1, 2)))",
     (({1, 2}, [(2, 1)]), {})),
    (Embedding, ("branch_map", "paths"), (({1: 4, 2: 5}, {(1, 2): (4, 6, 5)}), {}),
     "Embedding(branch_map={1: 4, 2: 5}, paths={(1, 2): (4, 6, 5)})",
     (({1: 4, 2: 5}, {(1, 2): (4, 5)}), {})),
    (Verdict, ("supports_unsat", "pattern", "embedding", "reason"),
     ((False,), {"reason": Reason.FOREST}),
     "Verdict(supports_unsat=False, pattern=None, embedding=None, reason=<Reason.FOREST: 'forest'>)",
     ((False,), {"reason": Reason.UNICYCLIC})),
    (Verdict, ("supports_unsat", "pattern", "embedding", "reason"),
     ((True, Pattern.K4, EMBEDDING), {}),
     "Verdict(supports_unsat=True, pattern=<Pattern.K4: 'k4'>, embedding=Embedding(branch_map="
     "{1: 4, 2: 5}, paths={(1, 2): (4, 6, 5)}), reason=None)",
     ((True, Pattern.BOOK, EMBEDDING), {})),
    (SimplifyOutcome, ("result", "cnf", "trace"),
     ((SimplifyResult.SIMPLE, Cnf2.from_ints([[-1, 3]]), (SubstitutionStep(2, True),)), {}),
     "SimplifyOutcome(result=<SimplifyResult.SIMPLE: 'simple'>, cnf=Cnf2(-1 3), trace=(2:=T,))",
     ((SimplifyResult.SIMPLE, Cnf2.from_ints([[-1, 3]]), ()), {})),
    (BaseFormula, ("pattern", "cnf"), ((Pattern.K4, Cnf2.from_ints([[1, 2]])), {}),
     "BaseFormula(pattern=<Pattern.K4: 'k4'>, cnf=Cnf2(1 2))",
     ((Pattern.BOOK, Cnf2.from_ints([[1, 2]])), {})),
    # keys given out of order come back sorted, so equal embeddings print alike
    (Embedding, ("branch_map", "paths"),
     (({2: 5, 1: 4}, {(2, 3): (5, 6), (1, 2): (4, 5)}), {}),
     "Embedding(branch_map={1: 4, 2: 5}, paths={(1, 2): (4, 5), (2, 3): (5, 6)})",
     (({2: 5, 1: 4}, {(2, 3): (5, 7), (1, 2): (4, 5)}), {})),
]
IDS = [f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)]


def build(cls, arguments):
    args, kwargs = arguments
    return cls(*args, **kwargs)


def test_every_value_type_is_covered():
    assert {case[0] for case in CASES} == {
        Literal, Cnf2, SubstitutionStep, SolveResult, CensusReport, SimpleGraph, Multigraph,
        Embedding, Verdict, SimplifyOutcome, BaseFormula,
    }


@pytest.mark.parametrize("cls, fields, arguments, text, different", CASES, ids=IDS)
class TestValueContract:
    def test_equal_fields_give_equal_values_and_hashes(self, cls, fields, arguments, text,
                                                       different):
        a, b = build(cls, arguments), build(cls, arguments)
        assert a is not b and a == b and not a != b
        values = tuple(getattr(a, f) for f in fields)
        try:
            expected = hash(values)
        except TypeError:
            # a dict field makes the value unhashable, as it always did
            with pytest.raises(TypeError):
                hash(a)
        else:
            # the hash of the field tuple, so sets of values iterate as before
            assert hash(a) == hash(b) == expected
        assert a != build(cls, different)

    def test_another_class_is_not_equal(self, cls, fields, arguments, text, different):
        a = build(cls, arguments)
        for other_cls, _, other_arguments, _, _ in CASES:
            if other_cls is not cls:
                other = build(other_cls, other_arguments)
                assert a.__eq__(other) is NotImplemented
                assert a != other and other != a
        assert a != tuple(getattr(a, f) for f in fields)

    def test_repr(self, cls, fields, arguments, text, different):
        assert repr(build(cls, arguments)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, arguments, text, different):
        a = build(cls, arguments)
        before = repr(a)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(a, f))
            with pytest.raises(AttributeError):
                delattr(a, f)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert repr(a) == before

    def test_deepcopy_and_pickle_round_trip(self, cls, fields, arguments, text, different):
        a = build(cls, arguments)
        for b in (copy.deepcopy(a), pickle.loads(pickle.dumps(a)), copy.copy(a)):
            assert type(b) is cls and b == a and repr(b) == text


@pytest.mark.parametrize("target, replacement", [(2, True), (5, False), (2, Literal(3, False)),
                                                 (7, Literal(1))])
def test_trusted_steps_are_the_checked_ones(target, replacement):
    checked = SubstitutionStep(target, replacement)
    trusted = SubstitutionStep._trusted(target, replacement)
    assert type(trusted) is SubstitutionStep and trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
    assert {trusted, checked} == {checked}
    for copied in (pickle.loads(pickle.dumps(trusted)), copy.deepcopy(trusted)):
        assert copied == checked and hash(copied) == hash(checked)
    with pytest.raises(AttributeError):
        trusted.target = target


@pytest.mark.parametrize("decided_first", [False, True])
def test_graph_round_trip_still_decides(decided_first):
    g = fixture_graph("butterfly")
    if decided_first:
        decide_support(g)
    expected = decide_support(fixture_graph("butterfly"))
    for h in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h == g and hash(h) == hash(g)
        assert decide_support(h) == expected
        assert h.adjacency == g.adjacency


@pytest.mark.parametrize("make, error, message", [
    (lambda: Literal(0), ValueError, "variable index must be >= 1, got 0"),
    (lambda: Literal(-2, False), ValueError, "variable index must be >= 1, got -2"),
    (lambda: Cnf2(CnfKind.NONTRIVIAL, ((1, 2),)), TypeError, "a sentence holds Clause values only"),
    (lambda: Cnf2(CnfKind.NONTRIVIAL), ValueError, "nontrivial sentence needs at least one clause"),
    (lambda: Cnf2(CnfKind.TRUE, (Clause.of(1),)), ValueError, "true sentence carries no clauses"),
    (lambda: SubstitutionStep(0, True), ValueError, "target must be a variable index"),
    (lambda: SubstitutionStep(2, Literal(2)), ValueError,
     "literal replacement must use a different variable"),
    (lambda: SimpleGraph({0, 1}, []), ValueError, "vertex ids are positive integers"),
    (lambda: SimpleGraph({1}, [(1, 2)]), ValueError,
     r"edge \(1, 2\) has an endpoint outside the vertex set"),
    (lambda: SimpleGraph({1, 2}, [(1, 1)]), ValueError, "self-loop at 1"),
    (lambda: Multigraph({1}, [(1, 2)]), ValueError,
     r"edge \(1, 2\) has an endpoint outside the vertex set"),
    (lambda: CensusReport(SimpleGraph.of([(1, 2)]), 4, 3, 0, None), ValueError,
     "sat 3 and unsat 0 do not add up to 4"),
    (lambda: CensusReport(SimpleGraph.of([(1, 2)]), 4, 4, 0, Cnf2.from_ints([[1]])),
     ValueError, "an unsat example is given iff the unsat count is positive"),
])
def test_constructor_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_constructors_normalise_their_fields():
    s = Cnf2(CnfKind.NONTRIVIAL, [Clause.of(-1, 3), Clause.of(1, 2), Clause.of(1, 2)])
    assert s.clauses == (Clause.of(1, 2), Clause.of(-1, 3))
    g = SimpleGraph([3, 1, 2], [(2, 1), (1, 2)])
    assert g.vertices == frozenset({1, 2, 3}) and g.edges == frozenset({(1, 2)})
    assert type(g.vertices) is frozenset and type(g.edges) is frozenset
    m = Multigraph([2, 1], [(2, 1), (1, 2)])
    assert m.vertices == frozenset({1, 2}) and m.edges == ((1, 2), (1, 2))


MUTATIONS = {
    "setitem": lambda m: m.__setitem__(1, 99),
    "delitem": lambda m: m.__delitem__(next(iter(m))),
    "update": lambda m: m.update({1: 99}),
    "setdefault": lambda m: m.setdefault(99, 1),
    "pop": lambda m: m.pop(next(iter(m))),
    "popitem": lambda m: m.popitem(),
    "clear": lambda m: m.clear(),
    "ior": lambda m: m.__ior__({1: 99}),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
@pytest.mark.parametrize("field", ["branch_map", "paths"])
def test_cached_embedding_is_read_only(field, mutate):
    # built afresh, so its verdict is decided here and cached on it
    g = fixture_graph("butterfly")
    before = repr(decide_support(g))
    with pytest.raises(TypeError, match="read-only"):
        mutate(getattr(decide_support(g).embedding, field))
    assert repr(decide_support(g)) == before


def test_embedding_fields_print_compare_and_serialise_as_dicts():
    emb = decide_support(fixture_graph("butterfly")).embedding
    branch_map, paths = dict(emb.branch_map), dict(emb.paths)
    assert emb.branch_map == branch_map and emb.paths == paths
    assert repr(emb.branch_map) == repr(branch_map) and repr(emb.paths) == repr(paths)
    assert json.dumps(emb.branch_map) == json.dumps(branch_map)
    assert hash(emb) == hash(Embedding(branch_map, paths))
    for copied in (copy.deepcopy(emb), pickle.loads(pickle.dumps(emb))):
        with pytest.raises(TypeError):
            copied.branch_map[1] = 99
    # a path given as a list is kept as a tuple
    assert Embedding({1: 4, 2: 5}, {(1, 2): [4, 6, 5]}) == EMBEDDING


@pytest.mark.parametrize("kind, value",
                         [(CnfKind.TRUE, Cnf2.true()), (CnfKind.FALSE, Cnf2.false())])
def test_constant_kinds_hold_the_empty_tuple(kind, value):
    for empty in ([], (), set(), None):
        s = Cnf2(kind, empty)
        assert s.clauses == () and s == value and hash(s) == hash(value)
