"""Rewrite any reduced sentence of 1- and 2-literal clauses into an
equisatisfiable simple one.

"Simple" means the clause set mentions each variable pair at most once and
has no unit clauses, so its support is a simple graph.  The rewrite binds
variables forced by units or by repeated pairs, records every binding in a
replayable trace, and either reaches a simple sentence, the constant true
sentence, or detects unsatisfiability outright.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .formula import (
    Assignment,
    Cnf2,
    Literal,
    SubstitutionStep,
    _pair_clauses,
    apply_assignment,
    substitute,
)

Trace = tuple[SubstitutionStep, ...]


class PreconditionViolated(ValueError):
    """An operation was called outside its stated precondition."""


class ModelInvalid(ValueError):
    """The supplied model does not satisfy the simplified sentence."""


class SimplifyResult(enum.Enum):
    UNSATISFIABLE = "unsatisfiable"
    TRIVIALLY_TRUE = "trivially-true"
    SIMPLE = "simple"


@dataclass(frozen=True)
class SimplifyOutcome:
    result: SimplifyResult
    cnf: Cnf2
    trace: Trace

    @property
    def is_simple(self) -> bool:
        return self.result is SimplifyResult.SIMPLE


def count_pair_clauses(s: Cnf2, a: int, b: int) -> int:
    """Number of clauses over exactly the variables a and b (0 to 4)."""
    return len(_pair_clauses(s, a, b))


def eliminate_units(s: Cnf2) -> tuple[Cnf2, Trace]:
    """Bind unit-clause variables until none remain or falsity is reached.

    Each forced binding is recorded; binding a variable whose complementary
    unit is also present reduces the sentence to false.
    """
    trace: list[SubstitutionStep] = []
    current = s
    while current.is_nontrivial:
        units = [c[0] for c in current.clauses if len(c) == 1]
        if not units:
            break
        # smallest variable first, its positive unit before its negative one
        lit = min(units, key=lambda x: (abs(x), x < 0))
        step = SubstitutionStep(abs(lit), lit > 0)
        trace.append(step)
        current = substitute(current, step)
    return current, tuple(trace)


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
    # with a < b, a clause's first int is a's literal: (x or y) rules out
    # the assignment making both false
    ruled_out = {(c[0] < 0, c[1] < 0) for c in clauses}
    alive = [(ta, tb) for ta in (True, False) for tb in (True, False) if (ta, tb) not in ruled_out]
    steps: list[SubstitutionStep]
    if not alive:
        # substituting both in sequence grinds the four clauses down to falsity
        steps = [SubstitutionStep(a, True), SubstitutionStep(b, True)]
    elif len(alive) == 1:
        ((ta, tb),) = alive
        steps = [SubstitutionStep(a, ta), SubstitutionStep(b, tb)]
    else:
        (ta, tb), (ua, ub) = alive
        if ta == ua:
            steps = [SubstitutionStep(a, ta)]
        elif tb == ub:
            steps = [SubstitutionStep(b, tb)]
        else:
            # the two assignments disagree on both: b must copy (or mirror) a
            steps = [SubstitutionStep(b, Literal(a, ta == tb))]
    return replay_trace(s, steps), tuple(steps)


def _smallest_heavy_pair(s: Cnf2) -> tuple[int, int] | None:
    counts: Counter[tuple[int, int]] = Counter(
        (abs(c[0]), abs(c[1])) for c in s.clauses if len(c) == 2
    )
    heavy = [p for p, n in counts.items() if n >= 2]
    return min(heavy) if heavy else None


def to_simple(s: Cnf2) -> SimplifyOutcome:
    """Fixpoint loop: clear units, collapse the smallest repeated pair, repeat.

    Every binding removes a variable, so the loop terminates in at most
    |variables| steps.  The outcome is equisatisfiable to the input.
    """
    trace: list[SubstitutionStep] = []
    current = s
    while True:
        current, t = eliminate_units(current)
        trace.extend(t)
        if current.is_true:
            return SimplifyOutcome(SimplifyResult.TRIVIALLY_TRUE, current, tuple(trace))
        if current.is_false:
            return SimplifyOutcome(SimplifyResult.UNSATISFIABLE, current, tuple(trace))
        pair = _smallest_heavy_pair(current)
        if pair is None:
            return SimplifyOutcome(SimplifyResult.SIMPLE, current, tuple(trace))
        current, t = collapse_pair(current, *pair)
        trace.extend(t)


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
    if outcome.is_simple and not apply_assignment(outcome.cnf, model).is_true:
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
