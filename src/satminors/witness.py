"""Construct unsatisfiable sentences supported exactly on a given graph.

Each of the four minimal obstruction patterns carries a fixed base
sentence.  Transports carry a sentence across the paper's support-preserving
graph operations: subdivision, smoothing of a degree-2 variable,
contraction at an edge in no triangle, and extension to a supergraph.  A
witness is built from them: the base sentence is mapped onto the
embedding's branch map, each clause is lifted along its embedding path,
and the edges no path uses are filled once.  Every witness is
solver-verified before it is returned.
"""

from __future__ import annotations

from .formula import Clause, Cnf2, _canonical, _pair_clauses, _Value, cnf_to_dimacs, rename_variables
from .graph import (
    Edge,
    EdgeInTriangle,
    SimpleGraph,
    edge,
    is_subgraph,
    support_graph,
)
from .minors import Pattern, decide_support
from .sat import solve


class WitnessError(ValueError):
    """Base class for witness-construction errors."""


class EdgeAbsentInSupport(WitnessError):
    """The named edge is not an edge of the sentence's support graph."""


class VariableCollision(WitnessError):
    """The fresh variable already occurs in the sentence."""


class DegreeNotTwo(WitnessError):
    """The variable being smoothed away does not have exactly the two named neighbours."""


class NotASubgraph(WitnessError):
    """The sentence's support is not a labelled subgraph of the target."""


class InternalVerificationFailed(RuntimeError):
    """A constructed witness failed its solver check; this is a defect, not an input error."""


class BaseFormula(_Value):
    _fields = ("pattern", "cnf")

    def __init__(self, pattern: Pattern, cnf: Cnf2) -> None:
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "cnf", cnf)


_BASE_CLAUSES: dict[Pattern, tuple[tuple[int, int], ...]] = {
    Pattern.BUTTERFLY: ((1, 2), (-1, 3), (-2, 3), (-3, 4), (-3, 5), (-4, -5)),
    Pattern.BOWTIE: ((1, 2), (-1, 3), (-2, 3), (-3, 4), (-4, 5), (-4, 6), (-5, -6)),
    Pattern.K4: ((1, 2), (1, 3), (-1, 4), (-2, -3), (2, -4), (3, -4)),
    Pattern.BOOK: ((1, 2), (-1, 4), (2, 3), (-2, 4), (-2, 5), (-3, -4), (-4, -5)),
}


def base_formula(p: Pattern) -> BaseFormula:
    """The fixed unsatisfiable sentence supported on the canonical pattern copy."""
    return BaseFormula(p, Cnf2.from_ints(_BASE_CLAUSES[p]))


def lift_subdivision(s: Cnf2, e: Edge, w: int) -> Cnf2:
    """Transport a sentence across subdivision of one support edge.

    The single clause on (u, v) is split into two through the fresh
    variable w, keeping each endpoint's original polarity, so the result
    is supported on the subdivided graph and keeps the solver verdict in
    both directions.
    """
    u, v = edge(*e)
    _check_fresh(s, w)
    matches = _pair_clauses(s, u, v)
    if not matches:
        raise EdgeAbsentInSupport(f"no clause over ({u}, {v})")
    if len(matches) > 1:
        raise WitnessError(f"sentence is not simple at ({u}, {v})")
    (old,) = matches
    firsts, lasts = [], []
    # u < v, and a clause's ints are sorted by variable
    _lift(*old, (u, w, v), firsts, lasts)
    return Cnf2.of([*(c for c in s.clauses if c is not old), *map(Clause.of, firsts, lasts)])


def _check_fresh(s: Cnf2, w: int) -> None:
    """Refuse w as a new variable of s: it must be a positive id s does not use."""
    if w < 1:
        raise WitnessError(f"variable {w} is not a positive id")
    if s.is_nontrivial and w in s.variables():
        raise VariableCollision(f"variable {w} already occurs")


def _lift(lit: int, far_lit: int, path: tuple[int, ...],
          firsts: list[int], lasts: list[int]) -> None:
    """Append the clause (lit far_lit), subdivided along path, as int pairs.

    path runs from lit's variable to far_lit's.  Walking from its lower end,
    each interior vertex splits the remaining edge to the far end and is
    positive beside that edge's smaller endpoint, as lift_subdivision does.
    """
    if path[0] > path[-1]:
        path = path[::-1]
        lit, far_lit = far_lit, lit
    far = path[-1]
    for anchor, inner in zip(path, path[1:-1]):
        firsts.append(lit)
        lit = inner if anchor > far else -inner
        lasts.append(-lit)
    firsts.append(lit)
    lasts.append(far_lit)


def unsubdivide_witness(s: Cnf2, w: int, u: int, v: int) -> Cnf2:
    """Inverse transport: smooth away a degree-2 variable w between u and v.

    The two clauses through w are replaced by one clause joining u and v
    with the polarities they carried, preserving unsatisfiability.
    """
    if u == v:
        raise DegreeNotTwo("the two neighbours must be distinct")
    w_clauses = [c for c in s.clauses if w in c.support]
    if len(w_clauses) != 2 or {frozenset(c.support - {w}) for c in w_clauses} != {
        frozenset({u}),
        frozenset({v}),
    }:
        raise DegreeNotTwo(f"variable {w} is not joined to exactly {{{u}, {v}}}")
    rest = [c for c in s.clauses if w not in c.support]
    rest.append(Clause.of(*(x for c in w_clauses for x in c if abs(x) != w)))
    return Cnf2.of(rest)


def extend_to_supergraph(s: Cnf2, h: SimpleGraph) -> Cnf2:
    """Conjoin an all-positive clause for every edge of h missing from the support.

    Extra clauses cannot make an unsatisfiable sentence satisfiable, so the
    result is supported exactly on h and stays unsatisfiable.
    """
    if s.is_false:
        return s
    g = support_graph(s) if s.is_nontrivial else SimpleGraph.of([])
    if not is_subgraph(g, h):
        raise NotASubgraph("the sentence's support is not contained in the target graph")
    firsts, lasts = [], []
    _fill(h, g.edges, firsts, lasts)
    return Cnf2.of([*s.clauses, *map(Clause.of, firsts, lasts)])


def _fill(h: SimpleGraph, covered: frozenset[Edge] | set[Edge],
          firsts: list[int], lasts: list[int]) -> None:
    """Append (x y) for every edge of h not in covered; h may have no isolated vertex."""
    isolated = h.vertices - {x for e in h.edges for x in e}
    if isolated:
        raise NotASubgraph(f"isolated vertices {sorted(isolated)} cannot support any clause")
    filler = h.edges - covered
    firsts += [x for x, _ in filler]
    lasts += [y for _, y in filler]


def contract_witness(s: Cnf2, e: Edge, w: int) -> Cnf2:
    """Transport a sentence across contraction of a non-triangle support edge.

    Writing the clause on (u, v) with endpoint literals lu and lv, every
    other clause incident on u or v pairs some literal either with lu/lv or
    with their negations.  The contracted sentence keeps the untouched
    clauses and joins w positively to the literals seen against lu or
    against the negation of lv, and negatively to the rest.  Because the
    edge lies in no triangle the four literal groups are disjoint, so the
    result is simple, supported on the contracted graph, and unsatisfiable
    whenever the input is.
    """
    u, v = edge(*e)
    g = support_graph(s)
    if (u, v) not in g.edges:
        raise EdgeAbsentInSupport(f"({u}, {v}) is not a support edge")
    if set(g.neighbors(u)) & set(g.neighbors(v)):
        raise EdgeInTriangle(f"support edge ({u}, {v}) lies in a triangle")
    _check_fresh(s, w)
    (uv_clause,) = _pair_clauses(s, u, v)
    lit_u, lit_v = uv_clause
    out: list[Clause] = []
    for c in s.clauses:
        if c is uv_clause:
            continue
        if abs(c[0]) in (u, v):
            anchor, other = c
        elif abs(c[1]) in (u, v):
            other, anchor = c
        else:
            out.append(c)
            continue
        # u's literal of the (u, v)-clause pairs with w, its negation with
        # not-w; for v it is the other way round
        with_w = anchor == lit_u if abs(anchor) == u else anchor != lit_v
        out.append(Clause.of(other, w if with_w else -w))
    return Cnf2.of(out)


def synthesize_witness(g: SimpleGraph, cap: int = 64) -> Cnf2 | None:
    """Build a solver-verified unsatisfiable sentence supported exactly on g.

    Returns None when no such sentence exists.  Otherwise the witness is
    built from the transports: the base sentence of the embedded pattern is
    mapped onto the branch map, each of its clauses is lifted along its
    embedding path (the lift of lift_subdivision), and the edges of g that
    no path uses are filled once (the filler of extend_to_supergraph).  The
    clauses are sorted once, when the sentence is built.

    The embedding is decide_support's verdict on g, which is cached on g:
    after decide_support(g, cap) no search runs again.  The solver check
    and the support check run on every call.
    """
    verdict = decide_support(g, cap=cap)
    if not verdict.supports_unsat:
        return None
    if verdict.pattern is None or verdict.embedding is None:
        raise InternalVerificationFailed("a positive verdict carries no embedding")
    emb = verdict.embedding
    branch = emb.branch_map
    # each clause as its first and last int; every one joins a distinct
    # edge of g, so _canonical builds each Clause once and drops none
    firsts, lasts = [], []
    for a, b in base_formula(verdict.pattern).cnf.clauses:
        lit = branch[abs(a)] if a > 0 else -branch[abs(a)]
        far_lit = branch[abs(b)] if b > 0 else -branch[abs(b)]
        _lift(lit, far_lit, emb.paths[(abs(a), abs(b))], firsts, lasts)
    _fill(g, emb.used_edges(), firsts, lasts)
    s = Cnf2._trusted(_canonical(firsts, lasts, max(g.vertices)))
    result = solve(s)
    if result.satisfiable:
        raise InternalVerificationFailed("synthesized sentence is satisfiable")
    if support_graph(s) != g:
        raise InternalVerificationFailed("synthesized sentence is not supported exactly on g")
    return s


def witness_to_dimacs(s: Cnf2) -> str:
    """DIMACS text with a comment block mapping DIMACS indices to vertex ids."""
    if not s.is_nontrivial:
        return cnf_to_dimacs(s)
    vertices = sorted(s.variables())
    dense = {v: i + 1 for i, v in enumerate(vertices)}
    comments = [f"var {dense[v]} = vertex {v}" for v in vertices]
    return cnf_to_dimacs(rename_variables(s, dense), comments=comments)
