import random
from collections import Counter

import pytest

from corpus_util import parse_dimacs_by_lines
from satminors.formula import (
    BOTTOM,
    TOP,
    Clause,
    ClauseTooLong,
    Cnf2,
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
