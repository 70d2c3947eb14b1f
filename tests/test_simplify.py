import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import (
    FULL_CORPUS,
    clause_fan,
    eliminate_units_by_moving_targets,
    eliminate_units_by_rewriting,
    equivalence_chain,
    random_cnf,
    random_multigraph_raw,
    to_simple_by_moving_targets,
    to_simple_by_rewriting,
    unit_chain,
)
from test_pinned import SENTENCE_COUNT, SENTENCE_SEED, _raw_sentence
from satminors import (
    Cnf2,
    Literal,
    SimplifyResult,
    SubstitutionStep,
    apply_assignment,
    associated_multigraph,
    collapse_pair,
    count_pair_clauses,
    eliminate_units,
    lift_model,
    reduce,
    rename_variables,
    solve,
    to_simple,
)
from satminors.formula import ClauseTooLong
from satminors.simplify import ModelInvalid, PreconditionViolated, replay_trace

S1 = Cnf2.from_ints([[1, 2], [-1, 3], [-2, 3], [-3, 4], [-3, 5], [-4, -5]])


class TestCountPairClauses:
    def test_examples(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2]])
        assert count_pair_clauses(s, 1, 2) == 2
        assert count_pair_clauses(S1, 1, 2) == 1
        assert count_pair_clauses(Cnf2.from_ints([[1, 3]]), 1, 2) == 0

    def test_symmetric_and_strict(self):
        s = Cnf2.from_ints([[1, 2], [1, -2], [-1, 2]])
        assert count_pair_clauses(s, 2, 1) == 3
        with pytest.raises(ValueError):
            count_pair_clauses(s, 1, 1)


class TestEliminateUnits:
    def test_complementary_units_unsatisfiable(self):
        s = Cnf2.from_ints([[3, 4], [1], [-1]])
        out, trace = eliminate_units(s)
        assert out.is_false
        assert replay_trace(s, trace) == out

    def test_unit_propagation_chain(self):
        s = Cnf2.from_ints([[1], [-1, 2]])
        out, trace = eliminate_units(s)
        assert out.is_true
        assert trace == (SubstitutionStep(1, True), SubstitutionStep(2, True))

    def test_no_units_untouched(self):
        s = Cnf2.from_ints([[1, 2]])
        assert eliminate_units(s) == (s, ())

    def test_negative_unit_binds_false(self):
        s = Cnf2.from_ints([[-1], [1, 2]])
        out, trace = eliminate_units(s)
        assert out.is_true
        assert trace == (SubstitutionStep(1, False), SubstitutionStep(2, True))


class TestCollapsePair:
    def test_all_four_clauses_is_false(self):
        s = Cnf2.from_ints([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        out, trace = collapse_pair(s, 1, 2)
        assert out.is_false
        assert replay_trace(s, trace).is_false

    def test_three_clauses_bind_both_true(self):
        s = Cnf2.from_ints([[1, 2], [1, -2], [-1, 2], [-1, 3]])
        out, trace = collapse_pair(s, 1, 2)
        assert trace == (SubstitutionStep(1, True), SubstitutionStep(2, True))
        assert out == Cnf2.from_ints([[3]])

    def test_three_clauses_other_polarities(self):
        # surviving assignment is 1 false, 2 true
        s = Cnf2.from_ints([[1, 2], [-1, 2], [-1, -2], [1, 3]])
        out, trace = collapse_pair(s, 1, 2)
        assert trace == (SubstitutionStep(1, False), SubstitutionStep(2, True))
        assert out == Cnf2.from_ints([[3]])

    def test_opposite_pair_ties_negated(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2], [2, 3]])
        out, trace = collapse_pair(s, 1, 2)
        assert trace == (SubstitutionStep(2, Literal(1, False)),)
        assert out == Cnf2.from_ints([[-1, 3]])

    def test_equal_pair_ties_positively(self):
        s = Cnf2.from_ints([[1, -2], [-1, 2], [2, 3]])
        out, trace = collapse_pair(s, 1, 2)
        assert trace == (SubstitutionStep(2, Literal(1, True)),)
        assert out == Cnf2.from_ints([[1, 3]])

    def test_implied_unit_binds(self):
        s = Cnf2.from_ints([[1, 2], [1, -2], [-1, 3]])
        out, trace = collapse_pair(s, 1, 2)
        assert trace == (SubstitutionStep(1, True),)
        assert out == Cnf2.from_ints([[3]])

    # every set of two or more clauses on the pair (1, 2), next to (2 3):
    # the trace and result the lookup tables of the first implementation gave
    @pytest.mark.parametrize(
        "pair_clauses, trace, result",
        [
            (((1, 2), (1, -2)), "1:=T", "Cnf2(2 3)"),
            (((1, 2), (-1, 2)), "2:=T", "Cnf2<true>"),
            (((1, 2), (-1, -2)), "2:=-1", "Cnf2(-1 3)"),
            (((1, -2), (-1, 2)), "2:=1", "Cnf2(1 3)"),
            (((1, -2), (-1, -2)), "2:=F", "Cnf2(3)"),
            (((-1, 2), (-1, -2)), "1:=F", "Cnf2(2 3)"),
            (((1, 2), (1, -2), (-1, 2)), "1:=T 2:=T", "Cnf2<true>"),
            (((1, 2), (1, -2), (-1, -2)), "1:=T 2:=F", "Cnf2(3)"),
            (((1, 2), (-1, 2), (-1, -2)), "1:=F 2:=T", "Cnf2<true>"),
            (((1, -2), (-1, 2), (-1, -2)), "1:=F 2:=F", "Cnf2(3)"),
            (((1, 2), (1, -2), (-1, 2), (-1, -2)), "1:=T 2:=T", "Cnf2<false>"),
        ],
    )
    def test_every_clause_set_on_a_pair(self, pair_clauses, trace, result):
        s = Cnf2.from_ints(list(pair_clauses) + [[2, 3]])
        out, steps = collapse_pair(s, 1, 2)
        assert " ".join(map(repr, steps)) == trace
        assert repr(out) == result
        assert replay_trace(s, steps) == out

    def test_multiplicity_below_two_rejected(self):
        with pytest.raises(PreconditionViolated):
            collapse_pair(Cnf2.from_ints([[1, 2]]), 1, 2)

    def test_same_variable_twice_rejected(self):
        s = Cnf2.from_ints([[1, 2], [1, -2]])
        with pytest.raises(ValueError, match="two distinct variables"):
            collapse_pair(s, 1, 1)


class TestToSimple:
    def test_tie_then_rewrite(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2], [2, 3]])
        out = to_simple(s)
        assert out.result is SimplifyResult.SIMPLE
        assert out.cnf == Cnf2.from_ints([[-1, 3]])
        assert out.trace == (SubstitutionStep(2, Literal(1, False)),)

    def test_contradictory_units(self):
        out = to_simple(Cnf2.from_ints([[1], [-1]]))
        assert out.result is SimplifyResult.UNSATISFIABLE

    def test_already_simple_is_fixpoint(self):
        s = Cnf2.from_ints([[1, 2], [-2, 3]])
        out = to_simple(s)
        assert out.result is SimplifyResult.SIMPLE
        assert out.cnf == s
        assert out.trace == ()

    def test_trivially_true(self):
        out = to_simple(Cnf2.from_ints([[1], [-1, 2]]))
        assert out.result is SimplifyResult.TRIVIALLY_TRUE
        assert out.trace == (SubstitutionStep(1, True), SubstitutionStep(2, True))

    def test_constant_inputs(self):
        assert to_simple(Cnf2.true()).result is SimplifyResult.TRIVIALLY_TRUE
        assert to_simple(Cnf2.false()).result is SimplifyResult.UNSATISFIABLE

    def test_smallest_pair_processed_first(self):
        s = Cnf2.from_ints([[2, 3], [-2, -3], [1, 4], [-1, 4], [1, 5]])
        out = to_simple(s)
        first = out.trace[0]
        assert first.target in (1, 4)  # pair (1, 4) precedes (2, 3)

    def test_cascade_creates_new_units_and_pairs(self):
        # tying 2 := not 1 creates a second (1, 3) clause, which then collapses
        s = Cnf2.from_ints([[1, 2], [-1, -2], [2, 3], [1, 3]])
        out = to_simple(s)
        assert out.result in (SimplifyResult.SIMPLE, SimplifyResult.TRIVIALLY_TRUE)
        assert replay_trace(s, out.trace) == out.cnf

    def test_step_count_bounded_by_variables(self):
        rng = random.Random(11)
        for _ in range(300):
            s = random_cnf(rng)
            out = to_simple(s)
            if s.is_nontrivial:
                assert len(out.trace) <= len(s.variables())


def _relabelled(s: Cnf2, rng: random.Random) -> Cnf2:
    """s with its variables permuted and flipped at random."""
    old = sorted(s.variables())
    new = rng.sample(range(1, 2 * len(old) + 1), len(old))
    s = rename_variables(s, dict(zip(old, new)))
    flips = {v for v in new if rng.random() < 0.5}
    return reduce([[-x if abs(x) in flips else x for x in c] for c in s.clauses])


def _chains(rng: random.Random):
    for n in (1, 2, 3, 4, 7, 16, 33, 64, 101, 200):
        equivalences = equivalence_chain(n) if n > 1 else unit_chain(1)
        for s in (unit_chain(n), equivalences, clause_fan(n // 2 + 2)):
            yield s
            yield _relabelled(s, rng)
            # a unit against variable n, and the clauses led by n // 2 dropped
            yield reduce(list(s.clauses) + [[-n]])
            yield reduce([c for c in s.clauses if abs(c[0]) != n // 2])


_literals = st.integers(min_value=1, max_value=8).flatmap(lambda v: st.sampled_from([v, -v]))
_raw_sentences = st.lists(
    st.one_of(st.tuples(_literals), st.tuples(_literals, _literals)), max_size=24
)


class TestMatchesRewritingOracle:
    """The occurrence-list simplifier against the loop that rewrites the whole sentence."""

    @staticmethod
    def check(s: Cnf2) -> None:
        assert to_simple(s) == to_simple_by_rewriting(s)
        assert eliminate_units(s) == eliminate_units_by_rewriting(s)

    def test_random_multigraph_sentences(self):
        rng = random.Random(20261018)
        for max_vars, max_clauses in [(3, 8), (8, 20), (12, 40), (30, 60)] * 500:
            self.check(reduce(random_multigraph_raw(rng, max_vars, max_clauses)))

    def test_pinned_raw_sentences(self):
        rng = random.Random(SENTENCE_SEED)
        for _ in range(SENTENCE_COUNT):
            try:
                s = reduce(_raw_sentence(rng))
            except ClauseTooLong:
                continue
            self.check(s)

    def test_chains_and_fans(self):
        rng = random.Random(7)
        for s in _chains(rng):
            self.check(s)

    @settings(deadline=None, max_examples=300)
    @given(_raw_sentences)
    def test_hypothesis_sentences(self, raw):
        self.check(reduce(raw))


def _hubs(rng: random.Random):
    """Fans with random pairs added among their variables, relabelled.

    The fan's last variable gathers clauses and many repeated pairs, so the
    representative map relabels a class that still has repeated pairs
    waiting on the heap.
    """
    for m in (12, 20, 33, 50, 80):
        for _ in range(12):
            extra = []
            for _ in range(rng.randint(0, 2 * m)):
                u, v = rng.sample(range(1, m + 1), 2)
                extra.append([rng.choice([u, -u]), rng.choice([v, -v])])
            s = reduce(list(clause_fan(m).clauses) + extra)
            yield s
            yield _relabelled(s, rng)


class TestMatchesMovingTargets(TestMatchesRewritingOracle):
    """The representative map against the index that moves every clause of the target.

    The parent class's inputs run here too, against this oracle.
    """

    @staticmethod
    def check(s: Cnf2) -> None:
        # equal outcomes hold equal traces and equal clause tuples, in order
        assert to_simple(s) == to_simple_by_moving_targets(s)
        assert eliminate_units(s) == eliminate_units_by_moving_targets(s)

    @settings(deadline=None, max_examples=300)
    @given(_raw_sentences)
    def test_hypothesis_sentences(self, raw):
        # a test of its own: Hypothesis refuses one test run under two classes
        self.check(reduce(raw))

    def test_clause_fans(self):
        sizes = range(2, 301) if FULL_CORPUS else [*range(2, 41), *range(50, 301, 25)]
        for m in sizes:
            self.check(clause_fan(m))

    def test_shuffled_signed_equivalence_chains(self):
        rng = random.Random(20261019)
        for n in (2, 3, 5, 8, 13, 40, 101, 300):
            for _ in range(8):
                self.check(_relabelled(equivalence_chain(n), rng))

    def test_relabelled_classes_keep_their_repeated_pairs(self):
        rng = random.Random(19)
        for s in _hubs(rng):
            self.check(s)


class TestScaling:
    """Each binding rewrites only its target's clauses, so long chains stay cheap.

    The whole-sentence rewrite took about 10 s and 4 s on these chains.
    """

    @pytest.mark.parametrize("chain", [equivalence_chain, unit_chain])
    def test_chain_of_3000_within_two_seconds(self, chain):
        s = chain(3000)
        start = time.perf_counter()
        out = to_simple(s)
        elapsed = time.perf_counter() - start
        assert out.result is SimplifyResult.TRIVIALLY_TRUE
        assert len(out.trace) == 3000
        assert elapsed < 2.0, f"to_simple took {elapsed:.2f} s on {chain.__name__}(3000)"

    def test_clause_fan_is_linear(self):
        # moving the target's clauses took 0.16 / 0.68 / 2.9 s at m = 500 / 1000 / 2000
        s = clause_fan(2000)
        start = time.perf_counter()
        out = to_simple(s)
        elapsed = time.perf_counter() - start
        assert out.result is SimplifyResult.TRIVIALLY_TRUE and len(out.trace) == 1999
        assert elapsed < 0.5, f"to_simple took {elapsed:.2f} s on clause_fan(2000)"

    def test_shuffled_equivalence_chain_of_3000(self):
        rng = random.Random(3)
        s = _relabelled(equivalence_chain(3000), rng)
        start = time.perf_counter()
        out = to_simple(s)
        elapsed = time.perf_counter() - start
        assert out.result is SimplifyResult.TRIVIALLY_TRUE and len(out.trace) == 3000
        assert elapsed < 0.5, f"to_simple took {elapsed:.2f} s on a shuffled 3000-chain"

    def test_memory_follows_the_live_clauses(self):
        # the fan moves m**2 / 2 clauses through m**2 / 2 distinct pairs, of
        # which only O(m) are live at any time
        s = clause_fan(300)
        tracemalloc.start()
        try:
            out = to_simple(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.trace) == 299
        assert peak < 4 * 2**20, f"to_simple peaked at {peak / 2**20:.1f} MB"


class TestSimpleOutcomeInvariants:
    def test_randomized_equisatisfiability(self):
        rng = random.Random(1234)
        for _ in range(1500):
            s = random_cnf(rng)
            out = to_simple(s)
            assert replay_trace(s, out.trace) == out.cnf
            before = solve(s).satisfiable
            if out.result is SimplifyResult.UNSATISFIABLE:
                assert not before
                continue
            if out.result is SimplifyResult.TRIVIALLY_TRUE:
                assert before
                continue
            res = solve(out.cnf)
            assert res.satisfiable == before
            assert all(len(c.support) == 2 for c in out.cnf.clauses)
            assert associated_multigraph(out.cnf).is_simple
            if res.satisfiable:
                lifted = lift_model(out, res.model)
                assert apply_assignment(s, lifted).is_true


class TestLiftModel:
    def test_identity_on_empty_trace(self):
        out = to_simple(Cnf2.from_ints([[1, 2]]))
        assert lift_model(out, {1: True, 2: False}) == {1: True, 2: False}

    def test_replays_unit_bindings(self):
        s = Cnf2.from_ints([[1], [1, 2], [-1, 3]])
        out = to_simple(s)
        lifted = lift_model(out, {})
        assert apply_assignment(s, lifted).is_true
        assert lifted[1] is True

    def test_tie_resolved_from_source(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2], [2, 3]])
        out = to_simple(s)  # trace: 2 := not 1
        lifted = lift_model(out, {1: True, 3: True})
        assert lifted == {1: True, 3: True, 2: False}

    def test_unbound_source_defaults_true(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2]])
        out = to_simple(s)
        lifted = lift_model(out, {})
        assert apply_assignment(s, lifted).is_true
        assert lifted[1] is True and lifted[2] is False

    def test_invalid_model_rejected(self):
        out = to_simple(Cnf2.from_ints([[1, 2], [-2, 3]]))
        with pytest.raises(ModelInvalid):
            lift_model(out, {1: False, 2: False, 3: True})

    def test_unsatisfiable_outcome_rejected(self):
        out = to_simple(Cnf2.from_ints([[1], [-1]]))
        with pytest.raises(ValueError):
            lift_model(out, {})
