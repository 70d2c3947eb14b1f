"""Reduced CNF sentences with clauses of length one or two.

A stored sentence is always in reduced form: the boolean constants are
eliminated, duplicate literals and exact-duplicate clauses are collapsed,
and clauses containing a variable together with its negation are dropped
as tautologies.  The three possible shapes are the constant-true sentence,
the constant-false sentence, and a nonempty canonical clause set.  All
values are immutable; every operation returns a new value.

A clause is its tuple of signed DIMACS ints (3 for a variable, -3 for its
negation), and every operation here works on those ints.  Literal is a
public value type built only on demand: by Clause.literals, and as the
replacement of a substitution step.

Building is near-linear.  Every sentence is sorted by _canonical, which
takes each clause as the pair of its first and last literal and keys it
by an int in one loop, with no Python call per clause; Cnf2, reduce,
substitute and parse_dimacs all go through it.  parse_dimacs reads the
clause body as one token stream (one int() per token, ASCII digits only,
the range checked with min and max), drops comment lines one by one only
when the body holds a "c" at all, and looks for line numbers only when it
raises.

The value types of every layer (Literal, Cnf2 and SubstitutionStep here,
SimpleGraph, Verdict, SolveResult and the rest elsewhere) are plain classes
on the base _Value.  Each names its fields once, in _fields, and sets them
in its own __init__ with object.__setattr__ after checking them.  The base
compares and hashes a value by the tuple of its fields, as a frozen
dataclass does, so equal fields give equal values with equal hashes and a
value of another class is never equal; it prints Name(field=value, ...)
unless the class has its own __repr__, and it refuses every assignment and
deletion with AttributeError.  Instances keep a __dict__, so
cached_property works on them and pickle and copy.deepcopy restore them.
No process imports dataclasses, which loads inspect, ast and dis.
"""

from __future__ import annotations

import enum
from itertools import chain, repeat
from operator import attrgetter, itemgetter, length_hint
from typing import Iterable, Mapping, Sequence, Union

# Partial truth assignment, variable index -> value.
Assignment = dict[int, bool]


class FormulaError(ValueError):
    """Base class for errors raised while building or parsing sentences."""


class ParseError(FormulaError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ClauseTooLong(FormulaError):
    """A clause mentions three or more distinct literals."""


class VariableOutOfRange(FormulaError):
    """A DIMACS literal exceeds the declared variable count."""


class Const(enum.Enum):
    """Boolean constants, admitted only transiently inside raw clauses."""

    TOP = "top"
    BOTTOM = "bottom"


TOP = Const.TOP
BOTTOM = Const.BOTTOM


class _Value:
    """An immutable value that compares, hashes and prints by its fields.

    A subclass lists its field names in _fields and sets each field in
    __init__ with object.__setattr__.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the field tuple in one C call, held in a closure, which costs less
        # per call than looking it up on the class
        values = attrgetter(*cls._fields)

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Literal(_Value):
    """A variable or its negation.  Variable indices are 1-based."""

    _fields = ("var", "positive")

    def __init__(self, var: int, positive: bool = True) -> None:
        if var < 1:
            raise ValueError(f"variable index must be >= 1, got {var}")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "positive", positive)

    def negate(self) -> Literal:
        return Literal(self.var, not self.positive)

    @classmethod
    def from_int(cls, n: int) -> Literal:
        if n == 0:
            raise ValueError("0 does not encode a literal")
        return cls(abs(n), n > 0)

    def to_int(self) -> int:
        return self.var if self.positive else -self.var

    def __repr__(self) -> str:
        return str(self.to_int())


RawLiteral = Union[Literal, Const, int]
RawClause = Sequence[RawLiteral]


class Clause(tuple):
    """A disjunction of one or two literals over distinct variables.

    The clause is its tuple of signed DIMACS ints, sorted by variable, so
    equality and hashing come from the ints.  Literal or int arguments are
    accepted; duplicate or complementary literals are rejected because
    reduction removes them before a Clause is ever formed.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[Union[Literal, int]]) -> Clause:
        lits = tuple(_literal_int(x) for x in literals)
        if not 1 <= len(lits) <= 2:
            raise ValueError(f"clause must have 1 or 2 literals, got {len(lits)}")
        if len(lits) == 2 and abs(lits[0]) == abs(lits[1]):
            if lits[0] == lits[1]:
                raise ValueError("duplicate literal; reduce the clause first")
            raise ValueError("complementary literals form a tautology, not a clause")
        return _clause(lits)

    @classmethod
    def of(cls, *literals: Union[Literal, int]) -> Clause:
        return cls(literals)

    @property
    def literals(self) -> tuple[Literal, ...]:
        return tuple(Literal.from_int(x) for x in self)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(map(abs, self))

    def __repr__(self) -> str:
        return "(" + " ".join(map(str, self)) + ")"


def _clause(lits: Sequence[int]) -> Clause:
    """A Clause from one or two nonzero ints over distinct variables, unchecked."""
    if len(lits) == 2 and abs(lits[0]) > abs(lits[1]):
        lits = (lits[1], lits[0])
    return tuple.__new__(Clause, lits)


def _canonical(firsts: Iterable[int], lasts: Iterable[int], largest: int,
               clauses: Iterable[Clause | None] | None = None) -> tuple[Clause, ...]:
    """The distinct clauses (firsts[i] or lasts[i]) in canonical order.

    No |literal| exceeds largest; (a or a) is the unit (a), and (a or -a)
    is a tautology and drops out.  Every sentence is sorted here, by
    variable, positive first: a literal x is coded 2x or 1 - 2x, a clause is
    keyed by its smaller code over its larger one, a unit by its code twice,
    and a dict on the int key drops duplicates.  The plain keys sort with no
    key function.  clauses, when given, holds the Clause each pair already
    is, or None; a Clause is kept, not built again.
    """
    width = 1 << (largest.bit_length() + 2)
    new = tuple.__new__
    found: dict[int, Clause] = {}
    for a, b, c in zip(firsts, lasts, clauses or repeat(None)):
        if a + b:
            x = a + a if a > 0 else 1 - a - a
            y = b + b if b > 0 else 1 - b - b
            if x < y:
                found[x * width + y] = c or new(Clause, (a, b))
            elif y < x:
                found[y * width + x] = new(Clause, (b, a))
            else:
                found[x * width + x] = c or new(Clause, (a,))
    del firsts, lasts  # a parse's slices, freed before the keys are sorted
    return tuple(map(found.__getitem__, sorted(found)))


def _literal_int(x: Union[Literal, int]) -> int:
    if isinstance(x, Literal):
        return x.to_int()
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"not a raw literal: {x!r}")
    if x == 0:
        raise ValueError("0 does not encode a literal")
    return x


class CnfKind(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    NONTRIVIAL = "nontrivial"


class Cnf2(_Value):
    """A reduced sentence: constant true, constant false, or a clause set.

    In the nontrivial state the clause tuple is nonempty, sorted
    canonically, and free of exact duplicates, so two sentences built from
    the same clauses in any order compare equal.
    """

    _fields = ("kind", "clauses")

    def __init__(self, kind: CnfKind, clauses: tuple[Clause, ...] = ()) -> None:
        if kind is CnfKind.NONTRIVIAL:
            if not clauses:
                raise ValueError("nontrivial sentence needs at least one clause")
            if not all(map(isinstance, clauses, repeat(Clause))):
                raise TypeError("a sentence holds Clause values only")
            largest = max(map(abs, chain.from_iterable(clauses)))
            # a unit's last literal is its first
            firsts, lasts = map(itemgetter(0), clauses), map(itemgetter(-1), clauses)
            clauses = _canonical(firsts, lasts, largest, clauses)
        elif clauses:
            raise ValueError(f"{kind.value} sentence carries no clauses")
        object.__setattr__(self, "kind", kind)
        # a constant keeps (), whatever empty value it was given
        object.__setattr__(self, "clauses", clauses or ())

    @classmethod
    def _trusted(cls, clauses: tuple[Clause, ...]) -> Cnf2:
        """The sentence of distinct clauses in canonical order, unchecked; true if none."""
        if not clauses:
            return cls.true()
        s = object.__new__(cls)
        object.__setattr__(s, "kind", CnfKind.NONTRIVIAL)
        object.__setattr__(s, "clauses", clauses)
        return s

    @classmethod
    def true(cls) -> Cnf2:
        return cls(CnfKind.TRUE)

    @classmethod
    def false(cls) -> Cnf2:
        return cls(CnfKind.FALSE)

    @classmethod
    def of(cls, clauses: Iterable[Clause]) -> Cnf2:
        cs = tuple(clauses)
        if not cs:
            return cls.true()
        return cls(CnfKind.NONTRIVIAL, cs)

    @classmethod
    def from_ints(cls, clause_lists: Iterable[Iterable[int]]) -> Cnf2:
        """Build and reduce a sentence from DIMACS-style integer clauses."""
        return reduce(clause_lists)

    @property
    def is_true(self) -> bool:
        return self.kind is CnfKind.TRUE

    @property
    def is_false(self) -> bool:
        return self.kind is CnfKind.FALSE

    @property
    def is_nontrivial(self) -> bool:
        return self.kind is CnfKind.NONTRIVIAL

    def variables(self) -> frozenset[int]:
        return frozenset(map(abs, chain.from_iterable(self.clauses)))

    def __repr__(self) -> str:
        if self.is_true:
            return "Cnf2<true>"
        if self.is_false:
            return "Cnf2<false>"
        return "Cnf2" + "".join(repr(c) for c in self.clauses)


class SubstitutionStep(_Value):
    """One variable binding: to a constant or to another variable's literal."""

    _fields = ("target", "replacement")

    def __init__(self, target: int, replacement: Union[Literal, bool]) -> None:
        if target < 1:
            raise ValueError("target must be a variable index")
        if isinstance(replacement, Literal) and replacement.var == target:
            raise ValueError("literal replacement must use a different variable")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "replacement", replacement)

    @classmethod
    def _trusted(cls, target: int, replacement: Union[Literal, bool]) -> SubstitutionStep:
        """A step on a variable other than its replacement's, unchecked."""
        step = object.__new__(cls)
        step.__dict__.update(target=target, replacement=replacement)
        return step

    def __repr__(self) -> str:
        if self.replacement is True:
            return f"{self.target}:=T"
        if self.replacement is False:
            return f"{self.target}:=F"
        return f"{self.target}:={self.replacement!r}"


def _pair_clauses(s: Cnf2, a: int, b: int) -> list[Clause]:
    """The clauses over exactly the variables a and b."""
    if a == b:
        raise ValueError("pair requires two distinct variables")
    lo, hi = min(a, b), max(a, b)
    # a clause's ints are sorted by variable, and a unit has one variable
    return [c for c in s.clauses if abs(c[0]) == lo and abs(c[-1]) == hi]


def _coerce(x: RawLiteral) -> Union[int, Const]:
    return x if isinstance(x, Const) else _literal_int(x)


def reduce(raw_clauses: Iterable[RawClause]) -> Cnf2:
    """Apply the reduction tautologies to raw clauses until a fixpoint.

    Constants are eliminated, duplicate literals and clauses collapse,
    clauses holding a complementary pair drop out, and a clause left empty
    makes the whole sentence false.  Idempotent; accepts plain ints,
    Literal values, and the TOP/BOTTOM constants inside clauses.
    """
    firsts, lasts = [], []
    false_seen = False
    for raw in raw_clauses:
        if type(raw) is not list and type(raw) is not tuple:
            raw = tuple(raw)
        if len(raw) == 2:
            a, b = raw
            # two nonzero plain ints need no coercion; type(), not isinstance,
            # leaves bool to the checks below
            if type(a) is int and type(b) is int and a and b:
                firsts.append(a)
                lasts.append(b)
                continue
        lits: list[int] = []
        always_true = False
        for x in raw:
            y = _coerce(x)
            if y is TOP:
                always_true = True
            elif y is BOTTOM:
                continue
            elif -y in lits:
                always_true = True
            elif y not in lits:
                lits.append(y)
        if always_true:
            continue
        if not lits:
            false_seen = True
            continue
        if len(lits) > 2:
            raise ClauseTooLong(f"{len(lits)} distinct literals in one clause")
        firsts.append(lits[0])
        lasts.append(lits[-1])
    if false_seen:
        return Cnf2.false()
    largest = max(map(abs, chain(firsts, lasts)), default=0)
    return Cnf2._trusted(_canonical(firsts, lasts, largest))


def _rewrite(s: Cnf2, image: Mapping[int, Union[int, Const]]) -> Cnf2:
    """Map each variable in image to a literal or a constant, then reduce.

    image gives the value of the variable's positive literal; its negative
    literal takes the negation.  Clauses that mention no mapped variable
    are kept as they are.
    """
    if not s.is_nontrivial:
        return s
    firsts, lasts = [], []
    kept: list[Clause | None] = []
    for clause in s.clauses:
        if abs(clause[0]) not in image and abs(clause[-1]) not in image:
            firsts.append(clause[0])
            lasts.append(clause[-1])
            kept.append(clause)
            continue
        lits: list[int] = []
        satisfied = False
        for x in clause:
            y = image.get(abs(x))
            if y is None:
                lits.append(x)
            elif isinstance(y, Const):
                satisfied = satisfied or (y is TOP) == (x > 0)
            else:
                lits.append(y if x > 0 else -y)
        if satisfied:
            continue
        if not lits:
            return Cnf2.false()
        firsts.append(lits[0])
        lasts.append(lits[-1])
        kept.append(None)
    largest = max(map(abs, chain(firsts, lasts)), default=0)
    return Cnf2._trusted(_canonical(firsts, lasts, largest, kept))


def substitute(s: Cnf2, step: SubstitutionStep) -> Cnf2:
    """Replace every occurrence of the target variable, then reduce.

    A constant replacement sets the variable; a literal replacement maps
    occurrences of the target to that literal and negated occurrences to
    its negation.  True and false sentences are fixed points.
    """
    r = step.replacement
    if isinstance(r, Literal):
        return _rewrite(s, {step.target: r.to_int()})
    return _rewrite(s, {step.target: TOP if r else BOTTOM})


def apply_assignment(s: Cnf2, asg: Mapping[int, bool]) -> Cnf2:
    """Set every bound variable at once; equals folding substitute in any order."""
    return _rewrite(s, {v: TOP if value else BOTTOM for v, value in asg.items()})


def is_reduced(s: Union[Cnf2, Iterable[RawClause]]) -> bool:
    """True iff reduction would leave the input unchanged.

    Cnf2 values are reduced by construction.  Raw clause lists are checked
    literally: any constant, duplicate or complementary literal, empty
    clause, or repeated clause means a tautology still applies.
    """
    if isinstance(s, Cnf2):
        return True
    seen: set[frozenset[int]] = set()
    for raw in s:
        lits: set[int] = set()
        for x in raw:
            y = _coerce(x)
            if isinstance(y, Const):
                return False
            if y in lits or -y in lits:
                return False
            lits.add(y)
        if not lits:
            return False
        key = frozenset(lits)
        if key in seen:
            return False
        seen.add(key)
    return True


def rename_variables(s: Cnf2, mapping: Mapping[int, int]) -> Cnf2:
    """Rename variables through an injective map; unmapped variables keep their index."""
    if not s.is_nontrivial:
        return s
    old = s.variables()
    image = {mapping.get(v, v) for v in old}
    if len(image) != len(old):
        raise ValueError("variable renaming is not injective on this sentence")
    if min(image) < 1:
        raise ValueError(f"variable index must be >= 1, got {min(image)}")
    return _rewrite(s, mapping)


def parse_dimacs(text: Union[str, bytes]) -> Cnf2:
    """Parse DIMACS CNF text into a reduced sentence.

    Accepts `c` comment lines, one `p cnf <nvars> <nclauses>` header, and
    clauses of nonzero integers terminated by 0 (clauses may span lines,
    and a line may hold several).  Clauses with three or more distinct
    literals are rejected; the declared clause count is not enforced.  An
    explicit empty clause yields the false sentence; no clauses at all
    yield the true sentence.  Errors name the first offending line.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(0, f"input is not valid UTF-8: {exc}") from None
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if not stripped.startswith("p"):
            raise ParseError(lineno, "clause appears before the problem line")
        parts = stripped.split()
        if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
            raise ParseError(lineno, f"malformed problem line: {stripped!r}")
        try:
            nvars, _ = _strict_int(parts[2]), _strict_int(parts[3])
        except ValueError:
            raise ParseError(lineno, f"malformed problem line: {stripped!r}") from None
        if nvars < 0:
            raise ParseError(lineno, "negative variable count")
        break
    else:
        raise ParseError(0, "missing problem line")
    return _body_sentence(lines[lineno:], lineno, nvars)


def _body_sentence(body: list[str], before: int, nvars: int) -> Cnf2:
    """The sentence of the lines after the problem line `before`.

    The body is read as one token stream.  A second problem line stays in
    it and fails as a token, so errors keep their order in the text; line
    numbers are worked out only when raising.
    """
    text = " ".join(body)
    if "c" in text:
        # a comment line starts with c, so a body without one has none
        text = " ".join([ln for ln in body if not ln.lstrip().startswith("c")])
    tokens = text.split()
    try:
        ints = list(map(int, tokens))
    except ValueError:
        ints = None
    largest = max(max(ints), -min(ints)) if ints else 0
    lenient = _lenient(text) and any(map(_lenient, tokens))  # whitespace may be non-ASCII
    if ints is None or largest > nvars or lenient:
        raise _token_error(tokens, body, before, nvars)
    if ints and ints[-1] != 0:
        raise ParseError(_token_line(body, before, len(ints) - 1), "clause not terminated by 0")
    del text, tokens  # free the token strings before building
    if ints.count(0) * 3 == len(ints) and not any(ints[2::3]):
        # every clause has two literals
        return Cnf2._trusted(_canonical(ints[0::3], ints[1::3], largest))
    # each clause as its first and last literal, a unit as `a a`
    firsts, lasts = [], []
    empty = False
    stream = iter(ints)
    for a in stream:
        if not a:
            empty = True
            continue
        b = next(stream)
        if not b:
            b = a
        elif c := next(stream):
            lits = {a, b, c, *iter(stream.__next__, 0)}
            if len(lits) > 2:
                line = _token_line(body, before, len(ints) - length_hint(stream) - 1)
                raise ClauseTooLong(f"line {line}: clause has {len(lits)} distinct literals")
            a, b = min(lits), max(lits)
        firsts.append(a)
        lasts.append(b)
    return Cnf2.false() if empty else Cnf2._trusted(_canonical(firsts, lasts, largest))


def _lenient(text: str) -> bool:
    """Whether text may hold a token that int() reads but that is no ASCII digits, as 1_0."""
    return "_" in text or not text.isascii()


def _strict_int(token: str) -> int:
    """What int() reads from token, refused when the token is not ASCII or holds `_`."""
    if _lenient(token):
        raise ValueError(token)
    return int(token)


def _token_line(body: list[str], before: int, k: int) -> int:
    """The line number of body token k, where body follows line `before`."""
    for lineno, line in enumerate(body, start=before + 1):
        if not line.lstrip().startswith("c"):
            k -= len(line.split())
            if k < 0:
                break
    return lineno


def _token_error(tokens: list[str], body: list[str], before: int, nvars: int) -> FormulaError:
    """The error for the first body token that is no literal in range."""
    for k, token in enumerate(tokens):
        try:
            n = _strict_int(token)
        except ValueError:
            break
        if abs(n) > nvars:
            lineno = _token_line(body, before, k)
            return VariableOutOfRange(f"line {lineno}: literal {n} exceeds declared count {nvars}")
    lineno = _token_line(body, before, k)
    # a line that starts with p fails at its first token
    if body[lineno - before - 1].lstrip().startswith("p"):
        return ParseError(lineno, "duplicate problem line")
    return ParseError(lineno, f"bad token {token!r}")


def cnf_to_dimacs(s: Cnf2, comments: Sequence[str] = ()) -> str:
    """Emit DIMACS text, clauses in canonical sorted order, one per line."""
    lines = [f"c {c}" if c else "c" for c in comments]
    if s.is_true:
        lines.append("p cnf 0 0")
    elif s.is_false:
        lines.append("p cnf 0 1")
        lines.append("0")
    else:
        nvars = max(s.variables())
        lines.append(f"p cnf {nvars} {len(s.clauses)}")
        for clause in s.clauses:
            lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"
