import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import parse_dimacs_by_lines
from satminors import formula
from satminors.formula import (
    BOTTOM,
    TOP,
    Clause,
    ClauseTooLong,
    Cnf2,
    CnfKind,
    Literal,
    ParseError,
    SubstitutionStep,
    VariableOutOfRange,
    apply_assignment,
    cnf_to_dimacs,
    is_reduced,
    parse_dimacs,
    reduce,
    rename_variables,
    substitute,
)
from satminors.sat import solve

S1_INTS = [[1, 2], [-1, 3], [-2, 3], [-3, 4], [-3, 5], [-4, -5]]


class TestLiteral:
    def test_negate_is_involution(self):
        lit = Literal(3, False)
        assert lit.negate().negate() == lit
        assert lit.negate() == Literal(3, True)

    def test_int_round_trip(self):
        assert Literal.from_int(-7) == Literal(7, False)
        assert Literal.from_int(7).to_int() == 7
        with pytest.raises(ValueError):
            Literal.from_int(0)

    def test_requires_positive_index(self):
        with pytest.raises(ValueError):
            Literal(0)


class TestClause:
    def test_canonical_order(self):
        assert Clause.of(2, -1) == Clause.of(-1, 2)
        assert Clause.of(-1, 1 * 2).literals == (Literal(1, False), Literal(2))
        # a clause is its tuple of signed ints, built from ints or Literal values
        c = Clause.of(-3, 2)
        assert c == (2, -3) and hash(c) == hash((2, -3)) and repr(c) == "(2 -3)"
        assert Clause((Literal(3, False), Literal(2))) == c == Clause([2, -3])

    def test_positive_sorts_before_negative(self):
        assert [l.to_int() for l in Clause.of(-2, 1).literals] == [1, -2]
        assert [l.to_int() for l in Clause.of(-3, 2).literals] == [2, -3]

    def test_rejects_duplicates_and_tautologies(self):
        with pytest.raises(ValueError):
            Clause.of(1, 1)
        with pytest.raises(ValueError):
            Clause.of(1, -1)
        with pytest.raises(ValueError):
            Clause(tuple())
        with pytest.raises(ValueError):
            Clause.of(0, 1)
        with pytest.raises(ValueError):
            Clause.of(1, 2, 3)
        with pytest.raises(ValueError):
            Clause.of(Literal(2), -2)
        with pytest.raises(TypeError):
            Clause.of(True)
        with pytest.raises(TypeError):
            Cnf2.of([(1, 2)])

    def test_support(self):
        assert Clause.of(1, -2).support == frozenset({1, 2})
        assert Clause.of(1).support == frozenset({1})
        assert Clause.of(-1, -2).support == frozenset({1, 2})


class TestReduce:
    def test_or_with_top_is_true(self):
        assert reduce([[Literal(1), TOP]]).is_true

    def test_or_with_bottom_drops_constant(self):
        assert reduce([[Literal(1), BOTTOM]]) == Cnf2.from_ints([[1]])

    def test_empty_clause_is_false(self):
        assert reduce([[1], [BOTTOM]]).is_false

    def test_duplicate_literal_collapses(self):
        assert reduce([[1, 1]]) == Cnf2.from_ints([[1]])

    def test_duplicate_clause_collapses(self):
        assert reduce([[1], [1]]) == Cnf2.from_ints([[1]])

    def test_complementary_pair_is_tautology(self):
        assert reduce([[1, -1]]).is_true
        assert reduce([[1, 1], [1, -1]]) == Cnf2.from_ints([[1]])

    def test_no_clauses_is_true(self):
        assert reduce([]).is_true

    def test_idempotent(self):
        s = reduce([[1, 2], [1, 2], [3, TOP], [-2, BOTTOM]])
        again = reduce([[l for l in c.literals] for c in s.clauses])
        assert again == s

    def test_three_distinct_literals_rejected(self):
        with pytest.raises(ClauseTooLong):
            reduce([[1, 2, 3]])


class TestSubstitute:
    def test_const_true(self):
        s = Cnf2.from_ints([[1, 2], [-1, 3]])
        assert substitute(s, SubstitutionStep(1, True)) == Cnf2.from_ints([[3]])

    def test_by_literal_tautologizes(self):
        s = Cnf2.from_ints([[1, 2], [-1, -2]])
        out = substitute(s, SubstitutionStep(2, Literal(1, False)))
        assert out.is_true

    def test_const_false(self):
        s = Cnf2.from_ints([[1, 2]])
        assert substitute(s, SubstitutionStep(1, False)) == Cnf2.from_ints([[2]])

    def test_constants_are_fixed_points(self):
        step = SubstitutionStep(1, True)
        assert substitute(Cnf2.true(), step).is_true
        assert substitute(Cnf2.false(), step).is_false

    def test_commutes_on_distinct_targets(self):
        s = Cnf2.from_ints([[1, 2], [-2, 3], [1, -3]])
        p, q = SubstitutionStep(1, True), SubstitutionStep(3, False)
        assert substitute(substitute(s, p), q) == substitute(substitute(s, q), p)

    def test_replacement_variable_must_differ(self):
        with pytest.raises(ValueError):
            SubstitutionStep(1, Literal(1, False))


class TestApplyAssignment:
    def test_unsatisfiable_sentence_always_false(self):
        s = Cnf2.from_ints(S1_INTS)
        n = 5
        for bits in range(1 << n):
            asg = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
            assert apply_assignment(s, asg).is_false

    def test_true_fixed_point(self):
        assert apply_assignment(Cnf2.true(), {1: False}).is_true

    def test_partial_assignment_can_satisfy(self):
        assert apply_assignment(Cnf2.from_ints([[1, 2]]), {1: True}).is_true

    def test_total_assignment_yields_constant(self):
        s = Cnf2.from_ints([[1, 2], [-2, 3]])
        out = apply_assignment(s, {1: True, 2: False, 3: False})
        assert out.is_true or out.is_false

    def test_equals_folded_substitution(self):
        s = Cnf2.from_ints([[1, 2], [-2, 3], [3, -4]])
        asg = {1: False, 3: True, 4: False}
        folded = s
        for var, value in asg.items():
            folded = substitute(folded, SubstitutionStep(var, value))
        assert apply_assignment(s, asg) == folded


class TestIsReduced:
    def test_cnf_values_are_reduced(self):
        assert is_reduced(Cnf2.from_ints([[1, 2]]))
        assert is_reduced(Cnf2.true())

    def test_raw_duplicate_literal(self):
        assert not is_reduced([[1, 1]])

    def test_raw_constant(self):
        assert not is_reduced([[1, TOP]])

    def test_raw_duplicate_clause(self):
        assert not is_reduced([[1, 2], [2, 1]])

    def test_raw_reduced(self):
        assert is_reduced([[1, 2], [-1, 2]])


class TestCanonicalEquality:
    def test_clause_order_is_immaterial(self):
        a = Cnf2.from_ints([[1, 2], [-1, -2], [2, 3]])
        b = Cnf2.from_ints([[2, 3], [-2, -1], [2, 1]])
        assert a == b
        assert hash(a) == hash(b)

    def test_canonical_order_for_any_variable_size(self):
        # by variable, positive before negative, a unit before its pairs
        rng = random.Random(5)
        for scale in (1, 2**31, 2**70):
            for _ in range(50):
                def lit():
                    return rng.choice([1, -1]) * rng.randint(1, 9) * scale

                raw = [[lit() for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(1, 25))]
                s = reduce(raw)
                codes = [[2 * x if x > 0 else 1 - 2 * x for x in c] for c in s.clauses]
                assert codes == sorted(codes)


class TestParseDimacs:
    def test_direct_transcription(self):
        s = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")
        assert s == Cnf2.from_ints([[1, 2], [-1, -2]])

    def test_tautological_clause_reduces_to_true(self):
        assert parse_dimacs("p cnf 1 1\n1 -1 0\n").is_true

    def test_duplicate_clause_collapses(self):
        s = parse_dimacs("p cnf 1 2\n1 0\n1 0\n")
        assert s == Cnf2.from_ints([[1]])

    def test_comments_blanks_and_multiline_clauses(self):
        text = "c a comment\n\np cnf 3 2\nc mid comment\n1\n2 0\n-3 0\n"
        assert parse_dimacs(text) == Cnf2.from_ints([[1, 2], [-3]])

    def test_bytes_accepted(self):
        assert parse_dimacs(b"p cnf 1 1\n1 0\n") == Cnf2.from_ints([[1]])

    def test_empty_clause_is_false(self):
        assert parse_dimacs("p cnf 0 1\n0\n").is_false

    def test_unused_declared_variables_permitted(self):
        assert parse_dimacs("p cnf 9 1\n1 0\n") == Cnf2.from_ints([[1]])
        assert parse_dimacs("p cnf 4 0\n").is_true

    def test_clause_too_long(self):
        with pytest.raises(ClauseTooLong):
            parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        with pytest.raises(ClauseTooLong):
            parse_dimacs("p cnf 2 1\n1 -1 2 0\n")

    def test_duplicated_literal_is_fine(self):
        assert parse_dimacs("p cnf 2 1\n1 1 2 0\n") == Cnf2.from_ints([[1, 2]])

    def test_variable_out_of_range(self):
        with pytest.raises(VariableOutOfRange):
            parse_dimacs("p cnf 1 1\n2 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "garbage\n",
            "1 2 0\n",
            "p cnf 2\n1 2 0\n",
            "p cnf 2 1\np cnf 2 1\n1 0\n",
            "p cnf 2 1\n1 2\n",
            "p cnf 2 1\nx y 0\n",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            parse_dimacs(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\nnope 0\n")
        assert err.value.line == 2


# whitespace that str.split() splits on; the last seven also end a line
_BLANKS = [" ", "  ", "\t", "\xa0", "\u2003", "\n", "\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028"]
_ODD_TOKENS = ["x", "--3", "+3", "-0", "00", "1_0", "3.0", "0x1", "\u0663", "p", "p cnf 3 3", "cnf"]


def _dimacs_text(rng: random.Random) -> str | bytes:
    """Seeded DIMACS-like text, well-formed or broken in one of many ways."""
    nvars = rng.randint(1, 6) if rng.random() < 0.95 else 0
    items: list[str] = []
    for _ in range(rng.randint(0, 2)):
        items.append(rng.choice(["c lead", "", "   ", "c"]) + "\n")
    if rng.random() < 0.05:
        items.append("1 0\n")  # a clause before the header
    if rng.random() < 0.95:
        header = f"p cnf {nvars} {rng.randint(0, 9)}"
        if rng.random() < 0.06:
            header = rng.choice(["p cnf 3", "p dnf 3 3", "p cnf -1 0", "p cnf x 2", "pcnf 3 3"])
        items.append(rng.choice(["", "  ", "\t"]) + header + rng.choice(["\n", "\r\n", "\x0c"]))
    for _ in range(rng.randint(0, 8)):
        shape = rng.random()
        if shape < 0.08:
            items.append(rng.choice(["c mid", "  c indented 1 2 0", "c"]) + "\n")
            continue
        if shape < 0.12:
            items.append(rng.choice(_ODD_TOKENS))
        width = rng.choices([0, 1, 2, 3], [1, 3, 12, 1])[0]
        limit = nvars + (1 if rng.random() < 0.02 else 0)
        lits = [rng.choice([1, -1]) * rng.randint(1, max(limit, 1)) for _ in range(width)]
        if width == 3 and rng.random() < 0.5:
            lits[2] = rng.choice([lits[0], -lits[0]])
        items += [str(x) for x in lits]
        if rng.random() < 0.95:
            items.append("0")
    text = ""
    for item in items:
        text += item if item.endswith("\n") else item + rng.choice(_BLANKS)
    if rng.random() < 0.1:
        text = text.rstrip()
    if rng.random() < 0.1:
        data = text.encode()
        cut = rng.randint(0, len(data))
        return data[:cut] + rng.choice([b"", b"\xff", b"\xc3"]) + data[cut:]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, VariableOutOfRange, ClauseTooLong) as exc:
        return type(exc), str(exc)


class TestStrictTokens:
    """int() also reads 1_0 and other scripts' digits; the parsers refuse them."""

    @pytest.mark.parametrize("text, line, reason", [
        ("p cnf 20 1\n1_0 2 0\n", 2, "bad token '1_0'"),
        ("p cnf 3 1\n\u0663 2 0\n", 2, "bad token '\u0663'"),
        ("p cnf 3 2\n1 2 0\nc 1_0\n-1 \uff13 0\n", 4, "bad token '\uff13'"),
        ("p cnf 2 2\n1 2 0 -1\n-2_0 0\n", 3, "bad token '-2_0'"),
        ("p cnf 2_0 1\n1 2 0\n", 1, "malformed problem line: 'p cnf 2_0 1'"),
        ("p cnf 2 \u0661\n1 2 0\n", 1, "malformed problem line: 'p cnf 2 \u0661'"),
    ])
    def test_dimacs(self, text, line, reason):
        with pytest.raises(ParseError) as err:
            parse_dimacs(text)
        assert (err.value.line, err.value.reason) == (line, reason)
        assert str(err.value) == str(pytest.raises(ParseError, parse_dimacs_by_lines, text).value)

    def test_a_bad_token_comes_before_a_literal_out_of_range(self):
        with pytest.raises(ParseError, match="line 2: bad token '1_0'"):
            parse_dimacs("p cnf 2 2\n1_0 2 0\n9 1 0\n")
        with pytest.raises(VariableOutOfRange, match="line 2: literal 9 exceeds"):
            parse_dimacs("p cnf 2 2\n9 2 0\n1_0 1 0\n")

    def test_other_whitespace_still_separates(self):
        assert parse_dimacs("p cnf 2 1\n1\xa02\u20030\n") == Cnf2.from_ints([[1, 2]])
        assert parse_dimacs("c \u0663 1_0\np cnf 2 1\n-1 2 0\n") == Cnf2.from_ints([[-1, 2]])


_body_literals = st.integers(min_value=1, max_value=5).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def _dimacs_bodies(draw):
    """Clauses of 0-3 literals, and body lines that split them at random.

    Returns the clauses, the body lines and the line of each clause's 0,
    counting the problem line as line 1.
    """
    clauses = draw(st.lists(st.lists(_body_literals, max_size=3), max_size=14))
    lines: list[str] = []
    line: list[str] = []
    zero_lines = []
    for clause in clauses:
        for token in [*map(str, clause), "0"]:
            line.append(token)
            if token == "0":
                zero_lines.append(len(lines) + 2)
            if draw(st.integers(0, 3)) == 0:
                lines.append(" ".join(line))
                line = []
                if draw(st.integers(0, 4)) == 0:
                    lines.append(draw(st.sampled_from(["c", "c 1 2 3 0", "c 1_0 -x"])))
    lines.append(" ".join(line))
    return clauses, lines, zero_lines


class TestParseDimacsMatchesReduce:
    """Any body of short clauses parses to reduce of its clauses, or fails as before.

    The first clause with three distinct literals fails with the line of
    its 0, even after an empty clause.
    """

    @settings(deadline=None, max_examples=500)
    @given(_dimacs_bodies())
    def test_bodies(self, body):
        clauses, lines, zero_lines = body
        text = "p cnf 5 0\n" + "\n".join(lines) + "\n"
        long = [i for i, clause in enumerate(clauses) if len(set(clause)) > 2]
        if long:
            k = long[0]
            want = (ClauseTooLong, f"line {zero_lines[k]}: clause has 3 distinct literals")
        else:
            want = reduce(clauses)
        got = _outcome(parse_dimacs, text)
        assert got == want and got == _outcome(parse_dimacs_by_lines, text)


class TestParseDimacsMatchesLineReader:
    def test_seeded_texts(self):
        rng = random.Random(20261018)
        kinds = Counter()
        for _ in range(4000):
            text = _dimacs_text(rng)
            got = _outcome(parse_dimacs, text)
            assert got == _outcome(parse_dimacs_by_lines, text), text
            if isinstance(got, Cnf2):
                kinds[got.kind.value] += 1
            elif got[0] is ParseError:
                kinds[" ".join(got[1].split(": ", 1)[-1].split()[:2])] += 1
            else:
                kinds[got[0].__name__] += 1
        # every way to fail occurs, and many texts parse
        assert set(kinds) >= {
            "true", "false", "nontrivial", "ClauseTooLong", "VariableOutOfRange", "bad token",
            "duplicate problem", "clause not", "clause appears", "missing problem",
            "malformed problem", "negative variable", "input is",
        }, kinds
        assert kinds["nontrivial"] > 1000, kinds

    def test_line_numbers_count_every_line_break(self):
        text = "c x\r\np cnf 3 2\x0c1 2 0\x0b\x85c 1\u2028-3 x 0\n"
        with pytest.raises(ParseError) as err:
            parse_dimacs(text)
        assert err.value.line == 6
        assert str(err.value) == str(pytest.raises(ParseError, parse_dimacs_by_lines, text).value)


    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\u2028"])
    def test_bodies_with_and_without_comment_lines(self, brk):
        # a body holding no c has no comment line to drop; one that holds a c
        # drops its comment lines, and only those
        rng = random.Random(20261019)
        odd = ["c 1 2 0", "  c -1 0", "\tc", "c", "cnf 1 2 0", "1 cnf 0", "p cnf 9 9"]
        for comments in (False, True, True):
            for _ in range(60):
                lines = ["c lead"] * rng.randint(0, 1) + ["p cnf 9 40"]
                for _ in range(rng.randint(0, 12)):
                    if comments and rng.random() < 0.3:
                        lines.append(rng.choice(odd))
                    lits = [rng.choice([1, -1]) * rng.randint(1, 9) for _ in range(rng.randint(1, 2))]
                    lines.append(" ".join(map(str, lits)) + " 0")
                text = brk.join(lines) + rng.choice([brk, ""])
                assert _outcome(parse_dimacs, text) == _outcome(parse_dimacs_by_lines, text), text


def _pair_body(rng: random.Random, ids, comments: bool, brk: str) -> tuple[str, list[tuple[int, int]]]:
    """Seeded DIMACS text whose clauses all have two literals, and its pairs.

    ids maps a variable 1..n to its DIMACS id.  Pairs repeat (in either
    order), repeat a literal (a a) or hold a complementary pair (a -a).
    """
    n = rng.randint(1, 12)
    pairs: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 30)):
        shape = rng.random()
        a = rng.choice([1, -1]) * rng.randint(1, n)
        if shape < 0.1:
            b = a
        elif shape < 0.2:
            b = -a
        elif shape < 0.35 and pairs:
            a, b = rng.choice(pairs)
            if rng.random() < 0.5:
                a, b = b, a
        else:
            b = rng.choice([1, -1]) * rng.randint(1, n)
        pairs.append((a, b))
    pairs = [(ids(abs(a)) * (1 if a > 0 else -1), ids(abs(b)) * (1 if b > 0 else -1)) for a, b in pairs]
    lines = [f"p cnf {ids(n)} {len(pairs)}"]
    for a, b in pairs:
        if comments and rng.random() < 0.2:
            lines.append(rng.choice(["c", "c 1 2 0", "  c -1 0"]))
        # a clause may span lines, and a line may hold several
        lines.append(f"{a}{rng.choice([' ', brk])}{b} 0" + rng.choice(["", " "]))
    return brk.join(lines) + rng.choice([brk, ""]), pairs


def _assert_same_sentence(got: Cnf2, want: Cnf2) -> None:
    assert got == want
    assert repr(got) == repr(want)
    assert cnf_to_dimacs(got) == cnf_to_dimacs(want)
    assert solve(got) == solve(want)
    assert all(type(c) is Clause for c in got.clauses)


class TestPairBodies:
    """A body of two-literal clauses is built in one pass; it matches the general path."""

    @pytest.mark.parametrize("ids", [lambda v: v, lambda v: 1000 * v, lambda v: 2**64 + v],
                             ids=["plain", "x1000", "above-2**64"])
    @pytest.mark.parametrize("comments, brk", [(False, "\n"), (True, "\n"), (True, "\r\n")])
    def test_matches_line_reader_and_reduce(self, ids, comments, brk):
        rng = random.Random(20261019)
        kinds = Counter()
        for _ in range(150):
            text, pairs = _pair_body(rng, ids, comments, brk)
            got = parse_dimacs(text)
            _assert_same_sentence(got, parse_dimacs_by_lines(text))
            _assert_same_sentence(got, reduce(pairs))
            kinds[got.kind] += 1
            kinds["unit"] += any(len(c) == 1 for c in got.clauses)
        assert kinds[CnfKind.NONTRIVIAL] > 100 and kinds[CnfKind.TRUE] and kinds["unit"], kinds

    def test_repeated_literal_is_a_unit(self):
        s = parse_dimacs("p cnf 3 3\n-2 -2 0\n3 1 0\n-2 3 0\n")
        assert repr(s) == "Cnf2(1 3)(-2)(-2 3)"
        assert s == Cnf2.from_ints([[-2], [1, 3], [-2, 3]])

    def test_pair_in_both_orders_is_one_clause(self):
        assert repr(parse_dimacs("p cnf 2 3\n2 -1 0\n-1 2 0\n2 -1 0\n")) == "Cnf2(-1 2)"

    def test_tautologies_only_is_the_true_sentence(self):
        s = parse_dimacs("p cnf 3 4\n1 -1 0\n-3 3 0\nc 2 -2 0\n2 -2 0\n")
        assert s == Cnf2.true() and repr(s) == "Cnf2<true>"

    def test_sort_key_wider_than_a_machine_word(self):
        big = 2**70
        s = parse_dimacs(f"p cnf {big + 1} 3\n{big + 1} -{big} 0\n{big} 1 0\n-1 {big} 0\n")
        assert s == Cnf2.from_ints([[big + 1, -big], [big, 1], [-1, big]])
        assert repr(s) == f"Cnf2(1 {big})(-1 {big})(-{big} {big + 1})"


class TestPairBodyFastPath:
    """A DIMACS body never reaches reduce or Cnf2's checked constructor."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("the general path was taken")

    @classmethod
    def _refuse_general_paths(cls, monkeypatch):
        init = Cnf2.__init__

        def constants_only(self, kind, clauses=()):
            if kind is CnfKind.NONTRIVIAL:
                cls._refuse()
            init(self, kind, clauses)

        monkeypatch.setattr(formula, "reduce", cls._refuse)
        monkeypatch.setattr(Cnf2, "__init__", constants_only)

    def test_all_pairs_bypass_reduce_and_the_sort_key(self, monkeypatch):
        texts = ["p cnf 3 4\n1 -2 0\n-3 2 0\n2 2 0\n1 -1 0\n", "p cnf 2 1\n1 -1 0\n", "p cnf 0 0\n"]
        want = [parse_dimacs(text) for text in texts]
        self._refuse_general_paths(monkeypatch)
        assert [parse_dimacs(text) for text in texts] == want
        assert repr(want[0]) == "Cnf2(1 -2)(2)(2 -3)" and want[1].is_true and want[2].is_true

    @pytest.mark.parametrize("text", ["p cnf 3 2\n1 -2 0\n3 0\n", "p cnf 3 2\n1 -2 0\n1 1 3 0\n",
                                      "p cnf 3 2\n1 -2 0\n0\n",
                                      "p cnf 3 3\n3 -3 3 0\n2 2 -1 2 0\n"])
    def test_other_bodies_bypass_reduce(self, monkeypatch, text):
        want = parse_dimacs_by_lines(text)
        self._refuse_general_paths(monkeypatch)
        assert parse_dimacs(text) == want


class TestReduceArgumentsAreSized:
    """Every caller under src/ hands reduce a sized clause collection.

    The benchmark's span wrapper takes len() of reduce's first argument.
    """

    def test_callers(self, monkeypatch):
        from satminors import census, fixture_graph, synthesize_witness, to_simple

        general = formula.reduce
        calls = []

        def sized(raw_clauses):
            calls.append(len(raw_clauses))
            return general(raw_clauses)

        # a caller may hold reduce under its own name, as the span wrapper finds it
        for name, module in list(sys.modules.items()):
            if name == "satminors" or name.startswith("satminors."):
                for attr, value in list(vars(module).items()):
                    if value is general:
                        monkeypatch.setattr(module, attr, sized)
        pairs = "p cnf 4 3\n1 -2 0\n2 3 0\n-3 -4 0\n"
        units = "p cnf 4 4\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n"
        for text in (pairs, units):
            to_simple(parse_dimacs(text))
        assert not calls  # neither body nor the simplifier goes through reduce
        assert synthesize_witness(fixture_graph("hills:3")) is not None
        assert calls
        census(fixture_graph("config:pvv"))


class TestDimacsEmission:
    def test_round_trip(self):
        s = Cnf2.from_ints([[2, 3], [-1, -2], [1]])
        assert parse_dimacs(cnf_to_dimacs(s)) == s

    def test_true_and_false_round_trip(self):
        assert parse_dimacs(cnf_to_dimacs(Cnf2.true())).is_true
        assert parse_dimacs(cnf_to_dimacs(Cnf2.false())).is_false

    def test_canonical_clause_order(self):
        s = Cnf2.from_ints([[-1, -2], [1, 2]])
        body = [l for l in cnf_to_dimacs(s).splitlines() if not l.startswith(("c", "p"))]
        assert body == ["1 2 0", "-1 -2 0"]

    def test_comments_prefixed(self):
        text = cnf_to_dimacs(Cnf2.from_ints([[1]]), comments=["hello"])
        assert text.startswith("c hello\n")


class TestRenameVariables:
    def test_basic(self):
        s = Cnf2.from_ints([[1, 2], [-2, 3]])
        assert rename_variables(s, {1: 10, 2: 20, 3: 30}) == Cnf2.from_ints(
            [[10, 20], [-20, 30]]
        )

    def test_collision_rejected(self):
        s = Cnf2.from_ints([[1, 2]])
        with pytest.raises(ValueError):
            rename_variables(s, {1: 2})
