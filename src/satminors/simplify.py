"""Rewrite any reduced sentence of 1- and 2-literal clauses into an
equisatisfiable simple one.

"Simple" means the clause set mentions each variable pair at most once and
has no unit clauses, so its support is a simple graph.  The rewrite binds
variables forced by units or by repeated pairs, records every binding in a
replayable trace, and either reaches a simple sentence, the constant true
sentence, or detects unsatisfiability outright.

The rewrite works on one mutable clause set with occurrence lists per
variable and per variable pair, and min-heaps hand out the smallest unit
and the smallest repeated pair.  Binding a variable to a constant touches
only its own clauses.  Binding b to a literal of a merges two variables,
and a representative map keeps that near-linear: the clauses live over
internal variables, and each variable of the input names a signed
internal literal.  The side with fewer clauses moves (union by size,
Tarjan 1975).  When that is a's side, b's internal variable keeps its
clauses and is relabelled to name a, and its repeated pairs go back on the
heap under their new names.  The heaps and the trace use only the input's
names, so every binding, and its order, is the one that moving b's
clauses would give.  A clause fan of m variables, where b gathers a clause
from every other variable, costs O(m) instead of O(m^2).  The reduced
sentence is translated and built once, at the end.  substitute and
replay_trace remain the whole-sentence definition that every trace
replays to.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Mapping

from .formula import (
    Assignment,
    Clause,
    Cnf2,
    Literal,
    SubstitutionStep,
    _canonical,
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
    step = SubstitutionStep._trusted
    # with a < b, a clause's first int is a's literal: (x or y) rules out
    # the assignment making both false
    ruled_out = {(c[0] < 0, c[1] < 0) for c in clauses}
    alive = [(ta, tb) for ta in (True, False) for tb in (True, False) if (ta, tb) not in ruled_out]
    if not alive:
        # substituting both in sequence grinds the four clauses down to falsity
        return step(a, True), step(b, True)
    if len(alive) == 1:
        ((ta, tb),) = alive
        return step(a, ta), step(b, tb)
    (ta, tb), (ua, ub) = alive
    if ta == ua:
        return (step(a, ta),)
    if tb == ub:
        return (step(b, tb),)
    # the two assignments disagree on both: b must copy (or mirror) a
    return (step(b, Literal(a, ta == tb)),)


def to_simple(s: Cnf2) -> SimplifyOutcome:
    """Fixpoint loop: clear units, collapse the smallest repeated pair, repeat.

    Every binding removes a variable, so the loop terminates in at most
    |variables| steps.  A binding to a constant rewrites only the clauses
    of its target, and one to a literal only those of the side with fewer
    clauses.  The outcome is equisatisfiable to the input.
    """
    work = _Occurrences(s)
    while True:
        work.clear_units()
        if work.false or not work.clauses:
            break
        pair = work.heavy_pair()
        if pair is None:
            break
        for step in _collapse_steps(*pair):
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

    The clauses are held over internal variables.  An external variable (a
    name of the input, the trace and the heaps) stands for a signed
    internal literal, itself until relabelled; inner and outer hold the
    relabelled literals both ways, each with its negation.  Every internal
    variable has the set of clauses it occurs in, and every internal pair
    the set of clauses over it.  Units wait in a min-heap keyed (variable,
    negative), pairs with two or more clauses in a min-heap of their own,
    both in external names; both heaps are lazy, so an entry is checked
    when popped.
    """

    def __init__(self, s: Cnf2):
        self.inner: dict[int, int] = {}
        self.outer: dict[int, int] = {}
        self.clauses: set[tuple[int, ...]] = set(s.clauses)
        self.occ: dict[int, set[tuple[int, ...]]] = defaultdict(set)
        self.pairs: dict[tuple[int, int], set[tuple[int, ...]]] = defaultdict(set)
        # internal variable -> the partners it has had a heavy pair with
        self.partners: dict[int, set[int]] = defaultdict(set)
        self.units: list[tuple[int, bool]] = []
        self.heavy: list[tuple[int, int]] = []
        self.trace: list[SubstitutionStep] = []
        self.false = s.is_false
        occ, pairs, partners = self.occ, self.pairs, self.partners
        for c in s.clauses:
            x = c[0]
            u = abs(x)
            occ[u].add(c)
            if len(c) == 1:
                # canonical order lists the units by (variable, negative), a heap
                self.units.append((u, x < 0))
                continue
            v = abs(c[1])
            occ[v].add(c)
            group = pairs[u, v]
            group.add(c)
            if len(group) == 2:
                self.heavy.append((u, v))
                partners[u].add(v)
                partners[v].add(u)
        heapify(self.heavy)

    def _push_heavy(self, i: int, j: int) -> None:
        outer = self.outer.get
        a, b = abs(outer(i, i)), abs(outer(j, j))
        heappush(self.heavy, (a, b) if a < b else (b, a))
        self.partners[i].add(j)
        self.partners[j].add(i)

    def _add(self, c: tuple[int, ...]) -> None:
        if c in self.clauses:
            return
        self.clauses.add(c)
        x = c[0]
        self.occ[abs(x)].add(c)
        if len(c) == 1:
            e = self.outer.get(x, x)
            heappush(self.units, (abs(e), e < 0))
            return
        y = c[1]
        self.occ[abs(y)].add(c)
        pair = (abs(x), abs(y))
        group = self.pairs[pair]
        group.add(c)
        if len(group) == 2:
            self._push_heavy(*pair)

    def bind(self, step: SubstitutionStep) -> None:
        """Apply one substitution step to the clauses of its target."""
        self.trace.append(step)
        if self.false:
            return
        v, r = step.target, step.replacement
        t = self.inner.get(v, v)
        if r is not True and r is not False:
            self._tie(v, t, r)
            return
        lit = t if r else -t
        var = abs(t)
        clauses, unlink = self.clauses, self._unlink
        for c in self.occ.pop(var, ()):
            if len(c) == 1:
                clauses.remove(c)
                if c[0] != lit:
                    self.false = True
                    return
                continue
            other = unlink(c, var)
            if lit not in c:
                self._add((other,))

    def _unlink(self, c: tuple[int, int], var: int) -> int:
        """Drop the pair c, popped from var's clauses, and return its other literal."""
        self.clauses.remove(c)
        x, y = c
        other = y if abs(x) == var else x
        self.occ[abs(other)].remove(c)
        pair = (abs(x), abs(y))
        group = self.pairs[pair]
        group.remove(c)
        if not group:
            del self.pairs[pair]
        return other

    def _tie(self, v: int, t: int, r: Literal) -> None:
        """Bind v, whose internal literal is t, to the literal r."""
        a = r.var
        alpha = self.inner.get(a, a)
        if not r.positive:
            alpha = -alpha
        occ = self.occ
        # t and alpha become one literal, and the variable with fewer clauses
        # moves (union by size)
        if len(occ.get(abs(t), ())) > len(occ.get(abs(alpha), ())):
            # t's variable keeps its clauses and takes a's name; the bound v
            # names 0, no internal literal, so no stale heap entry of v matches
            new = t if r.positive else -t
            self.inner[a], self.inner[-a] = new, -new
            self.outer[new], self.outer[-new] = a, -a
            self.inner[v] = self.inner[-v] = 0
            self._rekey(abs(t))
            t, alpha = alpha, t
        # a literal step is a collapse's only step, after clear_units, so every
        # clause here is a pair
        var = abs(t)
        unlink, add = self._unlink, self._add
        for c in occ.pop(var, ()):
            other = unlink(c, var)
            z = alpha if t in c else -alpha
            if other == z:
                add((z,))
            elif other != -z:  # complementary literals: a tautology
                add((other, z) if abs(other) < abs(z) else (z, other))

    def _rekey(self, i: int) -> None:
        """Push the heavy pairs of internal variable i again, under its new name."""
        for j in self.partners.pop(i, ()):
            if len(self.pairs.get((i, j) if i < j else (j, i), ())) >= 2:
                self._push_heavy(i, j)

    def clear_units(self) -> None:
        """Bind unit variables, smallest first, until none is left."""
        inner = self.inner.get
        while self.units and not self.false:
            var, negative = heappop(self.units)
            x = inner(var, var)
            if ((-x if negative else x),) in self.clauses:
                self.bind(SubstitutionStep._trusted(var, not negative))

    def heavy_pair(self) -> tuple[int, int, Iterable[tuple[int, ...]]] | None:
        """The smallest pair a < b with two or more clauses, and those clauses.

        The clauses are in external names, a's literal first.
        """
        inner, outer = self.inner.get, self.outer.get
        while self.heavy:
            a, b = heappop(self.heavy)
            i, j = abs(inner(a, a)), abs(inner(b, b))
            group = self.pairs.get((i, j) if i < j else (j, i), ())
            if len(group) >= 2:
                found = []
                for x, y in group:
                    x, y = outer(x, x), outer(y, y)
                    found.append((x, y) if abs(x) == a else (y, x))
                return a, b, found
        return None

    def sentence(self, s: Cnf2) -> Cnf2:
        """The current clause set in external names, or s itself when nothing was bound."""
        if not self.trace:
            return s
        if self.false:
            return Cnf2.false()
        outer = self.outer.get
        firsts = [outer(c[0], c[0]) for c in self.clauses]
        lasts = [outer(c[-1], c[-1]) for c in self.clauses]
        largest = max(map(abs, chain(firsts, lasts)), default=0)
        return Cnf2._trusted(_canonical(firsts, lasts, largest))


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
