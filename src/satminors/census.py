"""Exhaustive ground truth: classify every simple sentence a graph supports.

Each edge of the graph carries one clause in one of four polarities, so a
graph with E edges supports exactly 4**E sentences.  The census counts the
satisfiable and the unsatisfiable ones exactly and reports the
lexicographically first unsatisfiable example, which is independently
solver-checked.  Polarity vectors are indexed with the smallest edge as the
most significant digit and codes ordered PP, PN, NP, NN.

The count is a dynamic program over the edges and never consults the
structural theorem.  After a prefix of edges, all that matters for the rest
is the set of truth assignments to the frontier (the vertices with both
processed and unprocessed edges) that extend to a model of the prefix's
clauses.  Prefixes with equal sets merge and add their counts; a prefix
whose set is empty stays unsatisfiable whatever follows, and accounts for
4**remaining sentences at once.  The counts do not depend on the edge order,
and the cost grows with the frontier's width, so a sorted order wider than
three slots is counted along a greedy order that keeps the frontier small
(the bandwidth idea of Cuthill and McKee), when that one is narrower.

The example is found on the sorted order, one prefix at a time: a
depth-first search tries the codes in order, computes each state's
successors when it reaches them and stops at the first empty set.  It
remembers per level the states with no unsatisfiable completion, so it
expands no more states than the sorted-order count would, and usually far
fewer.

A set is an int bitset over the assignments of a fixed slot layout: bit a
stands for the assignment giving slot k the value of bit k of a.  A vertex
takes the lowest free slot at its first edge and frees it after its last,
and a free slot is always false.  So a vertex enters as ``S | S << 2**k``,
a clause is one AND with a mask, and a vertex leaves as
``(S & Z_k) | ((S & ~Z_k) >> 2**k)``, with ``Z_k`` the assignments where
slot k is false.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from .formula import Clause, Cnf2
from .sat import solve

if TYPE_CHECKING:
    from .graph import SimpleGraph


class TooManyEdges(ValueError):
    def __init__(self, cap: int, count: int):
        super().__init__(f"graph has {count} edges, census cap is {cap}")
        self.cap = cap
        self.count = count


class EdgePolarity(enum.Enum):
    """Clause shape on a canonical edge (u, v), u < v."""

    PP = 0  # (u or v)
    PN = 1  # (u or not v)
    NP = 2  # (not u or v)
    NN = 3  # (not u or not v)

    def clause(self, u: int, v: int) -> Clause:
        if u > v:
            u, v = v, u
        lit_u = -u if self in (EdgePolarity.NP, EdgePolarity.NN) else u
        lit_v = -v if self in (EdgePolarity.PN, EdgePolarity.NN) else v
        return Clause.of(lit_u, lit_v)


@dataclass(frozen=True)
class CensusReport:
    graph: SimpleGraph
    total: int
    sat_count: int
    unsat_count: int
    example_unsat: Cnf2 | None

    def __post_init__(self) -> None:
        assert self.sat_count + self.unsat_count == self.total
        assert (self.example_unsat is not None) == (self.unsat_count > 0)


def formula_at(edges: list[tuple[int, int]], index: int) -> Cnf2:
    """Decode one polarity vector into its sentence."""
    codes = []
    for _ in edges:
        codes.append(index & 3)
        index >>= 2
    codes.reverse()
    clauses = [EdgePolarity(c).clause(u, v) for (u, v), c in zip(edges, codes)]
    return Cnf2.of(clauses)


def _slot_layout(edges: list[tuple[int, int]]):
    """Per edge: the slots of u and v, the slots entering, the slots freed."""
    last = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    slot: dict[int, int] = {}
    free: list[int] = []
    width = 0
    steps = []
    for i, (u, v) in enumerate(edges):
        entering = []
        for x in (u, v):
            if x not in slot:
                if free:
                    slot[x] = heappop(free)
                else:
                    slot[x] = width
                    width += 1
                entering.append(slot[x])
        leaving = [x for x in (u, v) if last[x] == i]
        steps.append((slot[u], slot[v], entering, [slot[x] for x in leaving]))
        for x in leaving:
            heappush(free, slot.pop(x))
    return steps, width


# A sorted layout at most this wide is counted as it is: on the small graphs
# that have one, a greedy order costs more than it saves.
_NARROW = 3


def _small_frontier_order(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Greedy order: each next edge leaves the fewest open vertices, earliest sorted first."""
    left = Counter(x for e in edges for x in e)  # edges not yet placed, per vertex
    seen: set[int] = set()

    def opened(x: int) -> int:  # the change in open vertices when x gets one more edge
        return -(left[x] == 1) if x in seen else left[x] > 1

    rest = list(edges)
    order = []
    while rest:
        j = min(range(len(rest)), key=lambda j: opened(rest[j][0]) + opened(rest[j][1]))
        e = rest.pop(j)
        order.append(e)
        left.subtract(e)
        seen.update(e)
    return order


def _transitions(layout: tuple[list, int]) -> list[tuple]:
    """Per edge: the slots entering, the four polarity masks, the slot moves on leaving."""
    steps, width = layout
    n_assignments = 1 << width
    full = (1 << n_assignments) - 1
    false_at = []
    for k in range(width):
        mask, span = (1 << (1 << k)) - 1, 2 << k
        while span < n_assignments:
            mask |= mask << span
            span <<= 1
        false_at.append(mask)
    transitions = []
    for su, sv, entering, leaving in steps:
        value_u = (false_at[su], full ^ false_at[su])
        value_v = (false_at[sv], full ^ false_at[sv])
        # polarity code c rules out (t_u, t_v) == (c >> 1, c & 1)
        keeps = [full ^ (value_u[c >> 1] & value_v[c & 1]) for c in range(4)]
        leave = [(false_at[k], full ^ false_at[k], 1 << k) for k in leaving]
        transitions.append(([1 << k for k in entering], keeps, leave))
    return transitions


def _children(state: int, transition: tuple) -> list[int]:
    """The four successor sets of state, in polarity code order."""
    entering, keeps, leave = transition
    for shift in entering:
        state |= state << shift
    kids = []
    for keep in keeps:
        kid = state & keep
        for false_k, true_k, shift in leave:
            kid = (kid & false_k) | ((kid & true_k) >> shift)
        kids.append(kid)
    return kids


def _count(transitions: list[tuple]) -> tuple[int, int]:
    """Exact (sat count, unsat count) over all 4**E polarity vectors."""
    layer = {1: 1}  # before any edge: the empty assignment, one prefix
    unsat = 0
    for i, transition in enumerate(transitions):
        rest = 4 ** (len(transitions) - 1 - i)
        successor: dict[int, int] = {}
        entering, keeps, leave = transition
        for state, count in layer.items():  # _children, inlined: this loop is the hot one
            for shift in entering:
                state |= state << shift
            for keep in keeps:
                kid = state & keep
                for false_k, true_k, shift in leave:
                    kid = (kid & false_k) | ((kid & true_k) >> shift)
                if kid:
                    successor[kid] = successor.get(kid, 0) + count
                else:
                    unsat += count * rest
        layer = successor
    return sum(layer.values()), unsat


def _first_unsat(transitions: list[tuple]) -> int:
    """The smallest index whose sentence is unsatisfiable; one must exist."""
    last = len(transitions) - 1
    dead: list[set[int]] = [set() for _ in transitions]  # states with no unsat completion
    stack = []  # per open level: state, its children, the code being tried
    state, kids, code = 1, _children(1, transitions[0]), 0
    while True:
        if code == 4:
            dead[len(stack)].add(state)
            if not stack:
                raise AssertionError("census lost its unsatisfiable prefix")
            state, kids, code = stack.pop()
            code += 1
        elif not kids[code]:
            index = 0
            for _, _, c in stack:
                index = 4 * index + c
            # every suffix is unsatisfiable; the smallest is all PP
            return (4 * index + code) * 4 ** (last - len(stack))
        elif len(stack) < last and kids[code] not in dead[len(stack) + 1]:
            stack.append((state, kids, code))
            state = kids[code]
            kids, code = _children(state, transitions[len(stack)]), 0
        else:
            code += 1


def census(g: SimpleGraph, cap: int = 10, threads: int = 1) -> CensusReport:
    """Classify all 4**E sentences supported on g, exactly.

    Raises TooManyEdges when g has more than cap edges.  threads is kept so
    existing callers work and has no effect: the census runs in-process.
    """
    edges = g.sorted_edges()
    n_edges = len(edges)
    if n_edges > cap:
        raise TooManyEdges(cap, n_edges)
    layout = counted = _slot_layout(edges)
    if layout[1] > _NARROW:
        greedy = _slot_layout(_small_frontier_order(edges))
        if greedy[1] < layout[1]:
            counted = greedy
    transitions = _transitions(counted)
    sat, unsat = _count(transitions)
    example: Cnf2 | None = None
    if unsat:
        if counted is not layout:
            transitions = _transitions(layout)
        example = formula_at(edges, _first_unsat(transitions))
        if solve(example).satisfiable:
            raise AssertionError("census found an example the solver calls satisfiable")
    return CensusReport(g, 4**n_edges, sat, unsat, example)


def supports_unsat_bruteforce(g: SimpleGraph, cap: int = 10) -> bool:
    """True iff the exhaustive census finds at least one unsatisfiable sentence."""
    return census(g, cap=cap).unsat_count > 0


def is_minimal_unsat_support(g: SimpleGraph, cap: int = 10) -> bool:
    """Check by brute force that g supports unsatisfiability minimally.

    Requires g itself to qualify.  Minimality holds when no single-edge
    deletion, single-vertex deletion, or degree-2 smoothing (where it keeps
    the graph simple) leaves a graph that still supports an unsatisfiable
    sentence.
    """
    from .graph import SimpleGraph, smooth_vertex  # the census itself never builds a graph

    if not supports_unsat_bruteforce(g, cap=cap):
        raise ValueError("graph does not support an unsatisfiable sentence")
    for e in g.sorted_edges():
        smaller = SimpleGraph(g.vertices, g.edges - {e})
        if supports_unsat_bruteforce(smaller, cap=cap):
            return False
    for v in sorted(g.vertices):
        remaining = frozenset(e for e in g.edges if v not in e)
        smaller = SimpleGraph(g.vertices - {v}, remaining)
        if supports_unsat_bruteforce(smaller, cap=cap):
            return False
    for v in sorted(g.vertices):
        if g.degree(v) != 2:
            continue
        x, y = g.neighbors(v)
        if g.has_edge(x, y):
            continue
        if supports_unsat_bruteforce(smooth_vertex(g, v), cap=cap):
            return False
    return True
