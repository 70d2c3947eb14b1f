"""Decide whether a graph can support an unsatisfiable sentence.

Exactly four minimal obstruction graphs exist: the butterfly (two triangles
sharing a vertex), the bowtie (two triangles joined by an edge), K4, and
the 3-page book K_{1,1,3}.  A graph supports an unsatisfiable sentence iff
one of these is a topological minor.  The verdict never searches: a
connected component qualifies when its cycle rank is at least three, or
when it is exactly two and the 2-core has a cut vertex (a figure-eight or
dumbbell core); a 2-connected rank-two core is a theta graph and supports
only satisfiable sentences.  The rank-two shape is read from the degrees
left after peeling the leaves.  The evidence comes from one run of a
generic subdivision-embedding search, which returns a checkable embedding.
Which pattern to search for is settled by structure, not by search: K4
embeds iff series-parallel reduction leaves something (Duffin 1965), and
the book iff two vertices of one block are joined by four internally
disjoint paths (Menger), which a flow of four augmentations decides.

A graph is decided at most once per cap: the verdict is cached on the
graph instance, the same Verdict object is returned on every later call,
and a HostTooLarge refusal is not cached.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .graph import (
    Edge,
    SimpleGraph,
    _blocks,
    _component_of,
    connected_components,
    edge,
)

# not called here; perfbench traces these bindings
from .graph import cut_vertices, cycle_rank, two_core  # noqa: F401


class HostTooLarge(ValueError):
    def __init__(self, cap: int, size: int):
        super().__init__(f"host has {size} vertices, search cap is {cap}")
        self.cap = cap
        self.size = size


class Pattern(enum.Enum):
    """The four minimal graphs that force an unsatisfiable sentence to exist."""

    K4 = "k4"
    BOOK = "book"
    BUTTERFLY = "butterfly"
    BOWTIE = "bowtie"


# Search order: smallest hosts first among the rank-3 patterns, then the
# two rank-2 patterns.
PATTERN_ORDER = (Pattern.K4, Pattern.BOOK, Pattern.BUTTERFLY, Pattern.BOWTIE)

_PATTERN_EDGES: dict[Pattern, tuple[tuple[int, int], ...]] = {
    Pattern.BUTTERFLY: ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)),
    Pattern.BOWTIE: ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)),
    Pattern.K4: ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
    Pattern.BOOK: ((1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)),
}


def pattern_graph(p: Pattern) -> SimpleGraph:
    """Canonical labelled copy of a pattern, vertices 1..n."""
    return SimpleGraph.of(_PATTERN_EDGES[p])


class Reason(enum.Enum):
    """Structural certificate for graphs that support only satisfiable sentences."""

    FOREST = "forest"
    UNICYCLIC = "unicyclic-components"
    THETA_CORE = "theta-core"


@dataclass(frozen=True, eq=True)
class Embedding:
    """A subdivision of a pattern placed inside a host graph.

    branch_map sends pattern vertices to distinct host vertices; paths sends
    each pattern edge (u, v), u < v, to a host path from branch_map[u] to
    branch_map[v].  Paths are internally disjoint from each other and from
    every branch image.
    """

    branch_map: Mapping[int, int]
    paths: Mapping[Edge, tuple[int, ...]]

    def used_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for path in self.paths.values():
            out.update(edge(a, b) for a, b in zip(path, path[1:]))
        return out


@dataclass(frozen=True, eq=True)
class Verdict:
    """Answer to "can this graph support an unsatisfiable sentence?".

    A positive answer carries a pattern and a verified embedding; a negative
    one carries the structural reason.
    """

    supports_unsat: bool
    pattern: Pattern | None = None
    embedding: Embedding | None = None
    reason: Reason | None = None


def find_topological_minor(
    host: SimpleGraph, pattern: Pattern, cap: int = 64
) -> Embedding | None:
    """Search for a subdivision of the pattern inside the host.

    Enumerates injective branch maps over degree-compatible host vertices,
    then routes internally disjoint paths for the pattern edges, most
    constrained edge first.  Deterministic; returns the first embedding in
    the fixed iteration order, or None when no subdivision embeds.

    Each partial map is checked as it grows (forward checking, Ullmann
    1976): once a pattern vertex is placed, the pattern edges among the
    placed vertices must route with every placed branch image blocked, or
    the candidate is dropped.  A full embedding extending the partial map
    routes those edges by paths that avoid every branch image, so the check
    never drops a map that could succeed.  Each placement routes once, and
    the routing of the last vertex, which covers every pattern edge, is the
    embedding.  The first two placements route nothing: two branch images
    in one component block no vertex between them, so their edge always
    routes.
    """
    if len(host.vertices) > cap:
        raise HostTooLarge(cap, len(host.vertices))
    pg = pattern_graph(pattern)
    if len(host.vertices) < len(pg.vertices) or len(host.edges) < len(pg.edges):
        return None

    comp_of = _component_of(host)
    pattern_vertices = sorted(pg.vertices, key=lambda v: (-pg.degree(v), v))
    pattern_edges = pg.sorted_edges()
    # prefix[i]: the pattern edges among the first i + 1 placed vertices
    prefix = [
        [e for e in pattern_edges if set(e) <= set(pattern_vertices[: i + 1])]
        for i in range(len(pattern_vertices))
    ]
    last = len(pattern_vertices) - 1
    candidates = {
        pv: [hv for hv in sorted(host.vertices) if host.degree(hv) >= pg.degree(pv)]
        for pv in pattern_vertices
    }
    if any(not c for c in candidates.values()):
        return None

    branch: dict[int, int] = {}
    taken: set[int] = set()

    def assign(i: int) -> Embedding | None:
        pv = pattern_vertices[i]
        home = comp_of[branch[pattern_vertices[0]]] if i else None
        for hv in candidates[pv]:
            if hv in taken:
                continue
            if home is not None and comp_of[hv] != home:
                continue
            branch[pv] = hv
            taken.add(hv)
            # every pattern has at least four vertices, so levels 0 and 1,
            # which need no routing, are never the last
            routed = _route_paths(host, prefix[i], branch) if i > 1 else {}
            if routed is not None:
                if i == last:
                    return Embedding(dict(branch), routed)
                found = assign(i + 1)
                if found is not None:
                    return found
            del branch[pv]
            taken.remove(hv)
        return None

    return assign(0)


def _route_paths(
    host: SimpleGraph, edges: list[Edge], branch: Mapping[int, int]
) -> dict[Edge, tuple[int, ...]] | None:
    """Find internally disjoint host paths realizing the given pattern edges.

    The paths avoid every branch image but their own two ends.
    """
    branch_images = set(branch.values())
    internals: set[int] = set()
    placed: dict[Edge, tuple[int, ...]] = {}

    # free[b]: neighbours of branch image b that no placed path runs through
    free = {b: host.degree(b) for b in branch_images}

    def claim(inner: list[int], step: int) -> None:
        for x in inner:
            for w in host.neighbors(x):
                if w in free:
                    free[w] += step

    def constraint(e: Edge) -> tuple[int, Edge]:
        return (min(free[branch[e[0]]], free[branch[e[1]]]), e)

    def route(remaining: list[Edge]) -> bool:
        if not remaining:
            return True
        e = min(remaining, key=constraint) if len(remaining) > 1 else remaining[0]
        rest = [x for x in remaining if x != e]
        start, goal = branch[e[0]], branch[e[1]]
        blocked = (branch_images - {start, goal}) | internals
        for path in _simple_paths(host, start, goal, blocked):
            inner = path[1:-1]
            internals.update(inner)
            claim(inner, -1)
            placed[e] = tuple(path)
            if route(rest):
                return True
            internals.difference_update(inner)
            claim(inner, 1)
            del placed[e]
        return False

    if route(edges):
        return placed
    return None


def _simple_paths(host: SimpleGraph, start: int, goal: int, blocked: set[int]):
    """Yield simple start-goal paths avoiding blocked vertices, in DFS order.

    Iterative, with one neighbour iterator per path vertex, so a path may
    be as long as the host.
    """
    path = [start]
    on_path = {start}
    pending = [iter(host.neighbors(start))]
    while pending:
        for w in pending[-1]:
            if w == goal:
                yield path + [goal]
            elif w not in blocked and w not in on_path:
                path.append(w)
                on_path.add(w)
                pending.append(iter(host.neighbors(w)))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())


def verify_embedding(host: SimpleGraph, pattern: Pattern, emb: Embedding) -> bool:
    """Check every embedding invariant against the host and pattern."""
    pg = pattern_graph(pattern)
    bm = dict(emb.branch_map)
    if set(bm) != pg.vertices:
        return False
    if len(set(bm.values())) != len(bm):
        return False
    if not set(bm.values()) <= host.vertices:
        return False
    if set(emb.paths) != pg.edges:
        return False
    branch_images = set(bm.values())
    seen_internal: set[int] = set()
    for (u, v), path in emb.paths.items():
        if len(path) < 2 or path[0] != bm[u] or path[-1] != bm[v]:
            return False
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if not host.has_edge(a, b):
                return False
        inner = set(path[1:-1])
        if inner & branch_images or inner & seen_internal:
            return False
        seen_internal.update(inner)
    return True


def _has_k4(g: SimpleGraph) -> bool:
    """Whether K4 is a topological minor, by series-parallel reduction.

    Deletes vertices of degree <= 1 and suppresses degree-2 vertices, whose
    new edge merges with a parallel one through the neighbour sets.  What
    survives has minimum degree 3 and so holds a K4 subdivision (Dirac
    1952); each step keeps whether a K4 minor exists, and K4 has maximum
    degree 3, so minors and topological minors agree.
    """
    nbrs = {v: set(ns) for v, ns in g.adjacency.items()}
    queue = [v for v, ns in nbrs.items() if len(ns) <= 2]
    while queue:
        v = queue.pop()
        ns = nbrs.get(v)
        if ns is None or len(ns) > 2:
            continue
        del nbrs[v]
        for w in ns:
            nbrs[w].discard(v)
        if len(ns) == 2:
            x, y = ns
            nbrs[x].add(y)
            nbrs[y].add(x)
        queue.extend(ns)
    return bool(nbrs)


def _has_book(g: SimpleGraph) -> bool:
    """Whether the book K_{1,1,3} is a topological minor.

    It is iff two vertices have four internally disjoint paths between
    them: at most one of the paths is an edge, and the other three each
    carry a page vertex.  Those paths lie in one block, whose cycle rank is
    then at least 3 and in which both ends have degree at least 4.
    """
    for block in _blocks(g):
        adj: dict[int, list[int]] = {}
        for a, b in block:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if len(block) - len(adj) + 1 < 3:
            continue
        hubs = sorted(v for v, ns in adj.items() if len(ns) >= 4)
        for i, s in enumerate(hubs):
            for t in hubs[i + 1:]:
                if _disjoint_paths(adj, s, t, 4) == 4:
                    return True
    return False


def _disjoint_paths(adj: Mapping[int, list[int]], s: int, t: int, want: int) -> int:
    """Count internally disjoint s-t paths, stopping at want.

    Unit-capacity flow with every vertex v split into an entry 2v and an
    exit 2v + 1 joined by an arc of capacity 1; each augmentation is one
    breadth-first search of the residual graph.
    """
    cap: dict[tuple[int, int], int] = {}
    arcs: dict[int, list[int]] = {}

    def arc(a: int, b: int, c: int) -> None:
        cap[a, b] = c
        cap[b, a] = 0
        arcs.setdefault(a, []).append(b)
        arcs.setdefault(b, []).append(a)

    for v, ns in adj.items():
        arc(2 * v, 2 * v + 1, want if v in (s, t) else 1)
        for w in ns:
            arc(2 * v + 1, 2 * w, 1)
    source, sink = 2 * s + 1, 2 * t
    for found in range(want):
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for b in arcs[a]:
                if b not in parent and cap[a, b]:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return found
        b = sink
        while b != source:
            a = parent[b]
            cap[a, b] -= 1
            cap[b, a] += 1
            b = a
    return want


# Exact structural tests run before the search.  The butterfly and the
# bowtie have none: a qualifying component holding neither K4 nor the
# book is searched for the butterfly, then the bowtie.
_MAY_EMBED = {Pattern.K4: _has_k4, Pattern.BOOK: _has_book}


def decide_support(g: SimpleGraph, cap: int = 64) -> Verdict:
    """Classify a graph by the sentences it can support.

    Decided per connected component from cycle rank and 2-core shape alone;
    when the answer is positive, a concrete pattern embedding is produced as
    evidence (first qualifying component, patterns in fixed order).

    Absence of K4 and the book is proved by structure, not by search: a
    pattern is skipped when its test in _MAY_EMBED fails, and the search
    would have rejected it.  So find_topological_minor runs once when K4 or
    the book embeds, and at most twice (a butterfly tried, then the bowtie)
    otherwise.  A qualifying component above the cap raises HostTooLarge
    before any test runs.

    The verdict is cached on g per cap, so a later call with the same cap,
    synthesize_witness's included, returns the same Verdict object without
    deciding again.  HostTooLarge is not cached: a call with a larger cap
    still decides.
    """
    # kept in g's __dict__, as cached_property keeps adjacency, so equality,
    # hash and repr, which read only the fields, never see it
    verdicts = g.__dict__.setdefault("_verdicts", {})
    verdict = verdicts.get(cap)
    if verdict is None:
        # setdefault: callers racing on one graph all get the first verdict stored
        verdict = verdicts.setdefault(cap, _decide(g, cap))
    return verdict


def _decide(g: SimpleGraph, cap: int) -> Verdict:
    """The verdict of decide_support, computed afresh."""
    components = connected_components(g)
    # a component is connected, so its cycle rank is |E| - |V| + 1
    ranks = [len(c.edges) - len(c.vertices) + 1 for c in components]
    for comp, rank in zip(components, ranks):
        if rank >= 3 or (rank == 2 and _core_has_cut_vertex(comp)):
            if len(comp.vertices) > cap:
                raise HostTooLarge(cap, len(comp.vertices))
            for pattern in PATTERN_ORDER:
                may_embed = _MAY_EMBED.get(pattern)
                if may_embed is not None and not may_embed(comp):
                    continue
                emb = find_topological_minor(comp, pattern, cap=cap)
                if emb is not None:
                    return Verdict(True, pattern=pattern, embedding=emb)
            raise AssertionError(
                f"structural decider found support but no pattern embeds in {comp!r}"
            )
    if any(r >= 2 for r in ranks):
        reason = Reason.THETA_CORE
    elif any(r == 1 for r in ranks):
        reason = Reason.UNICYCLIC
    else:
        reason = Reason.FOREST
    return Verdict(False, reason=reason)


def _core_has_cut_vertex(comp: SimpleGraph) -> bool:
    """Whether the 2-core of a connected graph of cycle rank 2 has a cut vertex.

    Equal to bool(cut_vertices(two_core(comp))), read from degree counts
    without building the core: leaves are peeled to a fixpoint.  A core of
    n vertices has n + 1 edges, so its degrees, each at least 2, sum to
    2n + 2.  So it has one vertex of degree 4, a figure-eight, or two of
    degree 3 joined by three chains of degree-2 vertices.  Those chains
    make a theta, with no cut vertex, unless one of them leaves a degree-3
    vertex and comes back to it, a dumbbell.
    """
    adj = comp.adjacency
    # a peeled vertex has degree 0; the core keeps a cycle, so no core
    # vertex drops to 0
    degree = {v: len(ns) for v, ns in adj.items()}
    leaves = [v for v, d in degree.items() if d == 1]
    while leaves:
        v = leaves.pop()
        degree[v] = 0
        for w in adj[v]:
            if degree[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    hubs = [v for v, d in degree.items() if d > 2]
    if len(hubs) == 1:
        return True
    hub = hubs[0]
    for first in adj[hub]:
        if not degree[first]:
            continue
        prev, v = hub, first
        while degree[v] == 2:
            prev, v = v, next(w for w in adj[v] if degree[w] and w != prev)
        if v == hub:
            return True
    return False
