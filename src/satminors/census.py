"""Exhaustive ground truth: classify every simple sentence a graph supports.

Each edge of the graph carries one clause in one of four polarities, so a
graph with E edges supports exactly 4**E sentences.  The census counts the
satisfiable and the unsatisfiable ones exactly and reports the
lexicographically first unsatisfiable example, which is independently
solver-checked.  Polarity vectors are indexed with the smallest edge as the
most significant digit and codes ordered PP, PN, NP, NN.

A clause on a leaf's edge is satisfied by the leaf's literal whatever the
rest, so a sentence is unsatisfiable iff its clauses on the 2-core are, and
the counts are the core's times 4**L, L the edges the leaf peel removes; the
first unsatisfiable example is the core's, with PP on every peeled edge.
A forest is answered without a count.

Flipping one variable's sign in every clause maps the core's sentences one
to one and keeps satisfiability, so they fall into orbits of 2**V, V the
core's vertices.  Only the sentence of each orbit with every literal
positive at its vertex's first edge in sorted order is visited, whatever
the order walked: each orbit has exactly one, and the counts are weighed
by 2 at each vertex so fixed.  The first unsatisfiable sentence is among
them, as flipping a vertex negative at its first edge gives a smaller one
(lex-leader symmetry breaking, Crawford et al. 1996).

The count is a dynamic program over the core's edges and never consults the
structural theorem.  After a prefix of edges, all that matters for the rest
is the set of truth assignments to the frontier (the vertices with both
processed and unprocessed edges) that extend to a model of the prefix's
clauses.  Prefixes with equal sets merge and add their counts, weighed by
orbit size; a prefix whose set is empty stays unsatisfiable whatever
follows.  The counts do not depend on the edge order, and the cost grows with
the frontier's width, so a sorted order wider than three slots is counted
along a greedy order that keeps the frontier small (the bandwidth idea of
Cuthill and McKee), when that one is narrower.

The same forward pass finds the example.  A vector's index is the sum over
its edges of code * 4**p, p the edge's digit in sorted order, so each set
keeps the least index of the prefixes that reach it.  When code c at an
edge of digit p empties a set, ``least + c * 4**p``, PP (0) on every later
edge, indexes an unsatisfiable vector, and the least of these is the first
one: that one's prefix empties some set at some edge, and the set's least
prefix, no larger, empties it there too.

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
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from .formula import Clause, Cnf2, _Value
from .sat import solve

if TYPE_CHECKING:
    from .graph import SimpleGraph


class TooManyEdges(ValueError):
    def __init__(self, cap: int, count: int):
        super().__init__(f"graph has {count} edges, census cap is {cap}")
        self.cap = cap
        self.count = count


# the signs of u and v in a clause on (u, v), by polarity code
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class EdgePolarity(enum.Enum):
    """Clause shape on a canonical edge (u, v), u < v."""

    PP = 0  # (u or v)
    PN = 1  # (u or not v)
    NP = 2  # (not u or v)
    NN = 3  # (not u or not v)

    def clause(self, u: int, v: int) -> Clause:
        if u > v:
            u, v = v, u
        a, b = _SIGNS[self.value]
        return Clause.of(a * u, b * v)


class CensusReport(_Value):
    _fields = ("graph", "total", "sat_count", "unsat_count", "example_unsat")

    def __init__(self, graph: SimpleGraph, total: int, sat_count: int, unsat_count: int,
                 example_unsat: Cnf2 | None) -> None:
        if sat_count + unsat_count != total:
            raise ValueError(f"sat {sat_count} and unsat {unsat_count} do not add up to {total}")
        if (example_unsat is not None) != (unsat_count > 0):
            raise ValueError("an unsat example is given iff the unsat count is positive")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "sat_count", sat_count)
        object.__setattr__(self, "unsat_count", unsat_count)
        object.__setattr__(self, "example_unsat", example_unsat)


def formula_at(edges: list[tuple[int, int]], index: int) -> Cnf2:
    """Decode one polarity vector on canonical edges, u < v, into its sentence."""
    signs = [_SIGNS[index >> k & 3] for k in range(2 * len(edges) - 2, -1, -2)]
    return Cnf2.of([tuple.__new__(Clause, (a * u, b * v)) for (u, v), (a, b) in zip(edges, signs)])


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

# Codes kept at an edge, by (first sorted edge of u, of v): each literal positive there
_KEPT = {(0, 0): (0, 1, 2, 3), (1, 0): (0, 1), (0, 1): (0, 2), (1, 1): (0,)}


def _small_frontier_order(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Greedy order: each next edge leaves the fewest open vertices, earliest sorted first."""
    left = Counter(x for e in edges for x in e)  # edges not yet placed, per vertex
    opened = {x: int(k > 1) for x, k in left.items()}  # change in open vertices at x's next edge
    incident: dict[int, list[int]] = {x: [] for x in left}
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    current: list = [opened[u] + opened[v] for u, v in edges]  # None once placed
    # A heap of (score, sorted index).  A vertex's opened value falls at most twice while
    # it has edges left; each fall pushes them anew and leaves their old entries stale.
    heap = sorted(zip(current, range(len(edges))))
    order = []
    while heap:
        score, i = heappop(heap)
        if score == current[i]:  # else stale
            current[i] = None
            order.append(edges[i])
            for x in edges[i]:
                left[x] -= 1
                if opened[x] != -(left[x] == 1):
                    opened[x] = -(left[x] == 1)
                    for j in incident[x]:
                        if current[j] is not None:
                            current[j] = opened[edges[j][0]] + opened[edges[j][1]]
                            heappush(heap, (current[j], j))
    return order


def _transitions(edges: list[tuple[int, int]], order: list[tuple[int, int]],
                 layout: tuple[list, int]) -> list[tuple]:
    """Per edge of order: entering slots, kept codes' masks and index offsets, slot moves, weight.

    edges is the sorted edge list that indexes the vectors, order a walk of
    some of its edges and layout that walk's _slot_layout.
    """
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
    digit = {e: len(edges) - 1 - i for i, e in enumerate(edges)}
    first: dict[int, tuple[int, int]] = {}  # each vertex's first walked edge in sorted order
    for e in sorted(order):
        first.setdefault(e[0], e)
        first.setdefault(e[1], e)
    transitions = []
    for (u, v), (su, sv, entering, leaving) in zip(order, steps):
        value_u = (false_at[su], full ^ false_at[su])
        value_v = (false_at[sv], full ^ false_at[sv])
        codes = _KEPT[first[u] == (u, v), first[v] == (u, v)]
        scale = 4 ** digit[u, v]
        # polarity code c rules out (t_u, t_v) == (c >> 1, c & 1)
        branches = [(full ^ (value_u[c >> 1] & value_v[c & 1]), c * scale) for c in codes]
        leave = [(false_at[k], full ^ false_at[k], 1 << k) for k in leaving]
        transitions.append(([1 << k for k in entering], branches, leave, 4 // len(codes)))
    return transitions


def _count(transitions: list[tuple]) -> tuple[int, int, int | None]:
    """Exact (sat count, unsat count, least unsat index) over all 4**E polarity vectors.

    The index is None when no vector is unsatisfiable.
    """
    layer = {1: 1}  # before any edge: the empty assignment, one prefix
    least = {1: 0}  # per set, the least index of the prefixes that reach it
    unsat, first = 0, None
    for i, (entering, branches, leave, weight) in enumerate(transitions):
        rest = 4 ** (len(transitions) - 1 - i)
        counts: dict[int, int] = {}
        indexes: dict[int, int] = {}
        for state, count in layer.items():
            low = least[state]
            count *= weight  # a kept prefix and its flips at the vertices fixed here
            for shift in entering:
                state |= state << shift
            for keep, offset in branches:
                kid = state & keep
                for false_k, true_k, shift in leave:
                    kid = (kid & false_k) | ((kid & true_k) >> shift)
                index = low + offset
                if not kid:
                    unsat += count * rest
                    if first is None or index < first:
                        first = index  # every suffix is unsatisfiable; the least is all PP
                elif kid in counts:
                    counts[kid] += count
                    if index < indexes[kid]:
                        indexes[kid] = index
                else:
                    counts[kid] = count
                    indexes[kid] = index
        layer, least = counts, indexes
    return sum(layer.values()), unsat, first


def census(g: SimpleGraph, cap: int = 10, threads: int = 1) -> CensusReport:
    """Classify all 4**E sentences supported on g, exactly.

    Raises TooManyEdges when g has more than cap edges.  threads is kept so
    existing callers work and has no effect: the census runs in-process.
    """
    edges = g.sorted_edges()
    n_edges = len(edges)
    if n_edges > cap:
        raise TooManyEdges(cap, n_edges)
    degree = g._core_degrees()
    core = [e for e in edges if degree[e[0]] and degree[e[1]]]
    if not core:
        return CensusReport(g, 4**n_edges, 4**n_edges, 0, None)
    order, layout = core, _slot_layout(core)
    if layout[1] > _NARROW:
        greedy = _small_frontier_order(core)
        narrow = _slot_layout(greedy)
        if narrow[1] < layout[1]:
            order, layout = greedy, narrow
    # the index has a digit for every edge, PP (0) on each peeled one
    _, unsat, first = _count(_transitions(edges, order, layout))
    unsat *= 4 ** (n_edges - len(core))
    example: Cnf2 | None = None
    if unsat:
        example = formula_at(edges, first)
        if solve(example).satisfiable:
            raise AssertionError("census found an example the solver calls satisfiable")
    return CensusReport(g, 4**n_edges, 4**n_edges - unsat, unsat, example)


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
