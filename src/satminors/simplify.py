"""Rewrite any reduced sentence of 1- and 2-literal clauses into an
equisatisfiable simple one.

"Simple" means the clause set mentions each variable pair at most once and
has no unit clauses, so its support is a simple graph.  The rewrite binds
variables forced by units or by repeated pairs, records every binding in a
replayable trace, and either reaches a simple sentence, the constant true
sentence, or detects unsatisfiability outright.

The rewrite works on one mutable clause set with occurrence lists per
variable and per variable pair, so a binding costs time in the clauses of
its target, not of the sentence, and min-heaps hand out the smallest unit
and the smallest repeated pair.  The reduced sentence is built once, at
the end.  substitute and replay_trace remain the whole-sentence definition
that every trace replays to.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from heapq import heappop, heappush
from typing import Iterable, Mapping

from .formula import (
    Assignment,
    Clause,
    Cnf2,
    Literal,
    SubstitutionStep,
    _clause,
    _pair_clauses,
    _Value,
    substitute,
)
from .sat import check_model

Trace = tuple[SubstitutionStep, ...]


class PreconditionViolated(ValueError):
    """An operation was called outside its stated precondition."""


class ModelInvalid(ValueError):
    """The supplied model does not satisfy the simplified sentence."""


class SimplifyResult(enum.Enum):
    UNSATISFIABLE = "unsatisfiable"
    TRIVIALLY_TRUE = "trivially-true"
    SIMPLE = "simple"


class SimplifyOutcome(_Value):
    _fields = ("result", "cnf", "trace")

    def __init__(self, result: SimplifyResult, cnf: Cnf2, trace: Trace) -> None:
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "cnf", cnf)
        object.__setattr__(self, "trace", trace)

    @property
    def is_simple(self) -> bool:
        return self.result is SimplifyResult.SIMPLE


def count_pair_clauses(s: Cnf2, a: int, b: int) -> int:
    """Number of clauses over exactly the variables a and b (0 to 4)."""
    return len(_pair_clauses(s, a, b))


def eliminate_units(s: Cnf2) -> tuple[Cnf2, Trace]:
    """Bind unit-clause variables until none remain or falsity is reached.

    The smallest unit variable goes first, its positive unit before its
    negative one.  Each forced binding is recorded; binding a variable
    whose complementary unit is also present reduces the sentence to false.
    """
    work = _Occurrences(s)
    work.clear_units()
    return work.sentence(s), tuple(work.trace)


def collapse_pair(s: Cnf2, a: int, b: int) -> tuple[Cnf2, Trace]:
    """Remove a variable pair mentioned by two or more clauses.

    Each clause over the pair rules out one assignment of (a, b).  Four
    clauses leave none and are jointly contradictory; three leave one,
    which binds both variables; two leave two, which either agree on one
    variable and bind it, or make b a literal of a.  The recorded steps
    replay to the returned sentence.
    """
    if a > b:
        a, b = b, a
    clauses = _pair_clauses(s, a, b)
    if len(clauses) < 2:
        raise PreconditionViolated(f"pair ({a}, {b}) has multiplicity {len(clauses)} < 2")
    steps = _collapse_steps(a, b, clauses)
    return replay_trace(s, steps), steps


def _collapse_steps(a: int, b: int, clauses: Iterable[Clause]) -> Trace:
    """collapse_pair's bindings for the clauses over the pair a < b."""
    # with a < b, a clause's first int is a's literal: (x or y) rules out
    # the assignment making both false
    ruled_out = {(c[0] < 0, c[1] < 0) for c in clauses}
    alive = [(ta, tb) for ta in (True, False) for tb in (True, False) if (ta, tb) not in ruled_out]
    if not alive:
        # substituting both in sequence grinds the four clauses down to falsity
        return SubstitutionStep(a, True), SubstitutionStep(b, True)
    if len(alive) == 1:
        ((ta, tb),) = alive
        return SubstitutionStep(a, ta), SubstitutionStep(b, tb)
    (ta, tb), (ua, ub) = alive
    if ta == ua:
        return (SubstitutionStep(a, ta),)
    if tb == ub:
        return (SubstitutionStep(b, tb),)
    # the two assignments disagree on both: b must copy (or mirror) a
    return (SubstitutionStep(b, Literal(a, ta == tb)),)


def to_simple(s: Cnf2) -> SimplifyOutcome:
    """Fixpoint loop: clear units, collapse the smallest repeated pair, repeat.

    Every binding removes a variable, so the loop terminates in at most
    |variables| steps, and each binding rewrites only the clauses of its
    target.  The outcome is equisatisfiable to the input.
    """
    work = _Occurrences(s)
    while True:
        work.clear_units()
        if work.false or not work.clauses:
            break
        pair = work.heavy_pair()
        if pair is None:
            break
        for step in _collapse_steps(*pair, work.pairs[pair]):
            work.bind(step)
    if work.false:
        result = SimplifyResult.UNSATISFIABLE
    elif work.clauses:
        result = SimplifyResult.SIMPLE
    else:
        result = SimplifyResult.TRIVIALLY_TRUE
    return SimplifyOutcome(result, work.sentence(s), tuple(work.trace))


class _Occurrences:
    """A clause set under substitution, indexed so each binding is local.

    Every variable has the set of clauses it occurs in, and every variable
    pair the set of clauses over it.  Units wait in a min-heap keyed
    (variable, negative), pairs with two or more clauses in a min-heap of
    their own; both heaps are lazy, so an entry is checked when popped.
    """

    def __init__(self, s: Cnf2):
        self.clauses: set[Clause] = set()
        self.occ: dict[int, set[Clause]] = defaultdict(set)
        self.pairs: dict[tuple[int, int], set[Clause]] = defaultdict(set)
        self.units: list[tuple[int, bool]] = []
        self.heavy: list[tuple[int, int]] = []
        self.trace: list[SubstitutionStep] = []
        self.false = s.is_false
        for c in s.clauses:
            self._add(c)

    def _add(self, c: Clause) -> None:
        if c in self.clauses:
            return
        self.clauses.add(c)
        x = c[0]
        self.occ[abs(x)].add(c)
        if len(c) == 1:
            heappush(self.units, (abs(x), x < 0))
            return
        y = c[1]
        self.occ[abs(y)].add(c)
        pair = (abs(x), abs(y))
        group = self.pairs[pair]
        group.add(c)
        if len(group) == 2:
            heappush(self.heavy, pair)

    def bind(self, step: SubstitutionStep) -> None:
        """Apply one substitution step to the clauses of its target."""
        self.trace.append(step)
        if self.false:
            return
        v = step.target
        r = step.replacement
        image = r if isinstance(r, bool) else r.to_int()
        for c in self.occ.pop(v, ()):
            self.clauses.remove(c)
            x, others = (c[0], c[1:]) if abs(c[0]) == v else (c[1], c[:1])
            if others:
                self.occ[abs(others[0])].remove(c)
                pair = (abs(c[0]), abs(c[1]))
                group = self.pairs[pair]
                group.remove(c)
                if not group:
                    del self.pairs[pair]
            if isinstance(image, bool):
                if image == (x > 0):
                    continue  # satisfied
                if not others:
                    self.false = True
                    return
                self._add(_clause(others))
                continue
            z = image if x > 0 else -image
            if not others or others[0] == z:
                self._add(_clause((z,)))
            elif others[0] != -z:  # complementary literals: a tautology
                self._add(_clause((z, others[0])))

    def clear_units(self) -> None:
        """Bind unit variables, smallest first, until none is left."""
        while self.units and not self.false:
            var, negative = heappop(self.units)
            if ((-var if negative else var),) in self.clauses:
                self.bind(SubstitutionStep(var, not negative))

    def heavy_pair(self) -> tuple[int, int] | None:
        """The smallest pair with two or more clauses, or None."""
        while self.heavy:
            pair = heappop(self.heavy)
            if len(self.pairs.get(pair, ())) >= 2:
                return pair
        return None

    def sentence(self, s: Cnf2) -> Cnf2:
        """The current clause set, or s itself when nothing was bound."""
        if not self.trace:
            return s
        if self.false:
            return Cnf2.false()
        return Cnf2.of(self.clauses)


def replay_trace(s: Cnf2, trace: Iterable[SubstitutionStep]) -> Cnf2:
    """Apply recorded steps in order; reproduces the simplified sentence."""
    current = s
    for step in trace:
        current = substitute(current, step)
    return current


def lift_model(outcome: SimplifyOutcome, model: Mapping[int, bool]) -> Assignment:
    """Extend a model of the simplified sentence to one of the original.

    Walks the trace backwards, giving each substituted variable the value
    its replacement took.  A literal replacement whose source variable is
    still unbound gets a default of true first.
    """
    if outcome.result is SimplifyResult.UNSATISFIABLE:
        raise ValueError("an unsatisfiable outcome has no model to lift")
    if outcome.is_simple and not check_model(outcome.cnf, model):
        raise ModelInvalid("model does not satisfy the simplified sentence")
    lifted: Assignment = dict(model)
    for step in reversed(outcome.trace):
        if isinstance(step.replacement, bool):
            lifted[step.target] = step.replacement
        else:
            source = step.replacement
            if source.var not in lifted:
                lifted[source.var] = True
            value = lifted[source.var]
            lifted[step.target] = value if source.positive else not value
    return lifted
