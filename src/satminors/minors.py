"""Decide whether a graph can support an unsatisfiable sentence.

Exactly four minimal obstruction graphs exist: the butterfly (two triangles
sharing a vertex), the bowtie (two triangles joined by an edge), K4, and
the 3-page book K_{1,1,3}.  A graph supports an unsatisfiable sentence iff
one of these is a topological minor.  The verdict never searches: a
connected component qualifies when its cycle rank is at least three, or
when it is exactly two and the 2-core has a cut vertex (a figure-eight or
dumbbell core); a 2-connected rank-two core is a theta graph and supports
only satisfiable sentences.

The verdict starts from one leaf peel of the whole graph
(SimpleGraph._core_degrees, kept on the graph, so the census and the
pattern search on the same graph read it without peeling again), which
leaves its 2-core's degrees.  A core with no hub, no vertex of degree 3 or
more, is a union of cycles, so the graph is a forest or its components are
unicyclic.  Otherwise one walk of the chains of degree-2 vertices between
the hubs gives the kernel of each core component that has a hub (see
_kernel).  Peeling a leaf keeps its component's cycle rank, so a kernel of
h hubs and c chains is a component's, of rank c - h + 1 >= 2.  The kernels
are read in component order: a kernel whose core reads off (below) is the
verdict, a rank-two kernel that does not is a theta, and only any other
kernel builds its component, whose size the cap bounds.

The evidence is a checkable embedding.  K4 and the book have cycle rank 3,
so a qualifying rank-two component holds neither, and its core names the
one pattern it holds: a figure-eight the butterfly, a dumbbell the bowtie
(its two cycles are disjoint, so no butterfly).  Its embedding is read off
the core's two loops in linear time, paths and all, and it is the one the
generic subdivision-embedding search would return; no search and no
routing run.  The same walk of the core's chains reads a rank-three core
that subdivides K4 (four hubs of degree 3, joined pairwise) or the book
(two hubs of degree 4, joined by four chains), again with neither.  In
every other component of rank three or more, one pass over the blocks
names the first pattern that embeds, and the search runs once, for it.
A weighted series-parallel reduction per block decides K4, which embeds
iff some block keeps more than two vertices (Duffin 1965), and the book,
which embeds iff two vertices are joined by four internally disjoint
paths, which the edge weights count.  Without either, the butterfly
embeds iff a vertex lies in two cyclic blocks or has degree 4 or more
inside one, and otherwise the bowtie is the pattern left.

A graph is decided at most once per cap: the verdict is cached on the
graph instance, the same Verdict object is returned on every later call,
and a HostTooLarge refusal is not cached.
"""

from __future__ import annotations

import enum
from functools import cache
from typing import Mapping, Sequence

from .formula import _Value
from .graph import (
    Edge,
    SimpleGraph,
    _blocks,
    _component_of,
    connected_components,
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


# Priority order: a positive verdict names the first of these that embeds,
# the rank-3 patterns first, then the two rank-2 patterns.
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


@cache
def _pattern(p: Pattern) -> SimpleGraph:
    """The one copy of a pattern that the search plans and checks read."""
    return pattern_graph(p)


class Reason(enum.Enum):
    """Structural certificate for graphs that support only satisfiable sentences."""

    FOREST = "forest"
    UNICYCLIC = "unicyclic-components"
    THETA_CORE = "theta-core"


class _FrozenDict(dict):
    """A dict that refuses every change; it hashes by its items.

    Its repr, == and JSON form are a dict's, and pickle and deepcopy
    rebuild it from a plain dict.
    """

    def _refuse(self, *args, **kwargs):
        raise TypeError("an embedding is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _FrozenDict, (dict(self),)


class Embedding(_Value):
    """A subdivision of a pattern placed inside a host graph.

    branch_map sends pattern vertices to distinct host vertices; paths sends
    each pattern edge (u, v), u < v, to a host path from branch_map[u] to
    branch_map[v].  Paths are internally disjoint from each other and from
    every branch image.  Both are read-only copies with their keys in
    sorted order, so equal embeddings have equal reprs; each path is a tuple.
    """

    _fields = ("branch_map", "paths")

    def __init__(self, branch_map: Mapping[int, int],
                 paths: Mapping[Edge, tuple[int, ...]]) -> None:
        object.__setattr__(self, "branch_map", _FrozenDict(sorted(branch_map.items())))
        object.__setattr__(self, "paths", _FrozenDict({e: tuple(paths[e]) for e in sorted(paths)}))

    def used_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for path in self.paths.values():
            out.update((a, b) if a < b else (b, a) for a, b in zip(path, path[1:]))
        return out


class Verdict(_Value):
    """Answer to "can this graph support an unsatisfiable sentence?".

    A positive answer carries a pattern and a verified embedding; a negative
    one carries the structural reason.
    """

    _fields = ("supports_unsat", "pattern", "embedding", "reason")

    def __init__(self, supports_unsat: bool, pattern: Pattern | None = None,
                 embedding: Embedding | None = None, reason: Reason | None = None) -> None:
        object.__setattr__(self, "supports_unsat", supports_unsat)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "embedding", embedding)
        object.__setattr__(self, "reason", reason)


def find_topological_minor(
    host: SimpleGraph, pattern: Pattern, cap: int = 64
) -> Embedding | None:
    """Search for a subdivision of the pattern inside the host.

    Enumerates injective branch maps over degree-compatible host vertices,
    then routes internally disjoint paths for the pattern edges, most
    constrained edge first.  Deterministic; returns the first embedding in
    the fixed iteration order, or None when no subdivision embeds.

    A pattern vertex of degree d takes its candidates, in ascending order,
    only from the host vertices of 2-core degree d or more (the host's
    leaf peel, shared with decide_support and census).  This drops no
    image a subdivision can use: every pattern vertex lies on a pattern
    cycle, so its image lies on a host cycle, which is in the 2-core; and
    its d paths leave it by d distinct edges into the core, since a simple
    path between two core vertices never enters a tree hung on the core,
    which it could leave only through the vertex it came in by.  Routing
    still reads the host adjacency, so the free-neighbour counts, the least
    map found and its paths are the ones the host-degree rule gives.

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

    The placement order, the pattern degrees and the edge lists routed at
    each placement are built once per pattern, on its first search.
    """
    if len(host.vertices) > cap:
        raise HostTooLarge(cap, len(host.vertices))
    order, needs, prefix, n_edges = _plan(pattern)
    adj = host.adjacency
    if len(adj) < len(order) or len(host.edges) < n_edges:
        return None
    core = host._core_degrees()
    hosts = sorted(adj)
    by_need = {d: [hv for hv in hosts if core[hv] >= d] for d in set(needs)}
    candidates = [by_need[d] for d in needs]
    if not all(candidates):
        return None

    comp_of = _component_of(host)
    last = len(order) - 1
    branch: dict[int, int] = {}
    taken: set[int] = set()

    def assign(i: int) -> Embedding | None:
        pv = order[i]
        home = comp_of[branch[order[0]]] if i else None
        for hv in candidates[i]:
            if hv in taken or (home is not None and comp_of[hv] != home):
                continue
            branch[pv] = hv
            taken.add(hv)
            # every pattern has at least four vertices, so levels 0 and 1,
            # which need no routing, are never the last
            routed = _route_paths(host, prefix[i], branch) if i > 1 else {}
            if routed is not None:
                if i == last:
                    return Embedding(branch, routed)
                found = assign(i + 1)
                if found is not None:
                    return found
            del branch[pv]
            taken.remove(hv)
        return None

    return assign(0)


@cache
def _plan(
    pattern: Pattern,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[Edge, ...], ...], int]:
    """A pattern's placement order, each placed vertex's degree, the sorted
    pattern edges among the first i + 1 placed vertices, and the edge count.

    Vertices are placed by falling degree, then by label.  Every part is a
    tuple, as every search shares them.
    """
    pg = _pattern(pattern)
    order = tuple(sorted(pg.vertices, key=lambda v: (-pg.degree(v), v)))
    edges = pg.sorted_edges()
    prefix = tuple(
        tuple(e for e in edges if set(e) <= set(order[: i + 1])) for i in range(len(order))
    )
    return order, tuple(pg.degree(v) for v in order), prefix, len(edges)


def _route_paths(
    host: SimpleGraph, edges: Sequence[Edge], branch: Mapping[int, int]
) -> dict[Edge, tuple[int, ...]] | None:
    """Find internally disjoint host paths realizing the given pattern edges.

    The paths avoid every branch image but their own two ends.  edges comes
    sorted, so of the edges tied for most constrained the first is routed,
    which is the least of them.
    """
    adj = host.adjacency
    # every branch image and placed path vertex; a path search may pass it
    # whole, as it never steps onto its start and meets its goal first
    blocked = set(branch.values())
    placed: dict[Edge, tuple[int, ...]] = {}

    # free[b]: neighbours of branch image b that no placed path runs through
    free = {b: len(adj[b]) for b in blocked}

    def route(remaining: Sequence[Edge]) -> bool:
        if not remaining:
            return True
        # the most constrained edge: fewest free neighbours at either end
        e = remaining[0]
        if len(remaining) > 1:
            least = len(adj)
            for x in remaining:
                a, b = free[branch[x[0]]], free[branch[x[1]]]
                a = a if a < b else b
                if a < least:
                    e, least = x, a
        rest = [x for x in remaining if x != e]
        # the paths this search yields stay valid: what the recursion below
        # adds to blocked, it removes before the search resumes
        for path in _simple_paths(host, branch[e[0]], branch[e[1]], blocked):
            inner = path[1:-1]
            blocked.update(inner)
            for x in inner:
                for w in adj[x]:
                    if w in free:
                        free[w] -= 1
            placed[e] = path
            if route(rest):
                return True
            blocked.difference_update(inner)
            for x in inner:
                for w in adj[x]:
                    if w in free:
                        free[w] += 1
            del placed[e]
        return False

    if route(edges):
        return placed
    return None


def _simple_paths(host: SimpleGraph, start: int, goal: int, blocked: set[int]):
    """Yield simple start-goal paths avoiding blocked vertices, in DFS order, as tuples.

    start and goal may be in blocked.  Iterative, with one neighbour
    iterator per path vertex, so a path may be as long as the host.
    """
    adj = host.adjacency
    path = [start]
    on_path = {start}
    pending = [iter(adj[start])]
    while pending:
        for w in pending[-1]:
            if w == goal:
                yield (*path, goal)
            elif w not in blocked and w not in on_path:
                path.append(w)
                on_path.add(w)
                pending.append(iter(adj[w]))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())


def verify_embedding(host: SimpleGraph, pattern: Pattern, emb: Embedding) -> bool:
    """Check every embedding invariant against the host and pattern.

    Any id that is no host vertex, 0 and negative ids included, fails the
    check: the answer is False, never an error.
    """
    pg = _pattern(pattern)
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
    # each step is a host edge, in either direction; the edge set is read
    # as it is, so no sorted adjacency is built
    edges = host.edges
    seen_internal: set[int] = set()
    for (u, v), path in emb.paths.items():
        if len(path) < 2 or path[0] != bm[u] or path[-1] != bm[v]:
            return False
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if (a, b) not in edges and (b, a) not in edges:
                return False
        inner = set(path[1:-1])
        if inner & branch_images or inner & seen_internal:
            return False
        seen_internal.update(inner)
    return True


def _rank_three_pattern(comp: SimpleGraph) -> Pattern:
    """The first pattern of PATTERN_ORDER that is a topological minor of
    comp, a connected graph of cycle rank 3 or more.

    One weighted series-parallel reduction per block of cycle rank 3 or
    more suppresses degree-2 vertices.  An edge of the block starts at
    weight 1, and a suppressed vertex joins its two neighbours by weight 1
    more, so an edge of weight k stands for k internally disjoint paths
    between its ends with no vertex left inside.  Each step keeps the block
    2-connected and, an edge counted as its weight, the number of
    internally disjoint paths between any two vertices left.

    K4 embeds iff some block keeps more than two vertices: they have
    minimum degree 3 and hold a K4 subdivision (Dirac 1952), each step
    keeps whether a K4 minor exists (Duffin 1965), and K4 has maximum
    degree 3, so minors and topological minors agree.  The book embeds iff
    two vertices s and t are joined by four internally disjoint paths, at
    most one of them an edge.  So it does when some weight reaches 4, or 3
    while a third vertex is left, whose paths to both ends (2-connectivity)
    give the fourth.  Conversely, when s is suppressed before t, one of its
    two neighbours is t, as any other carries at most one of the paths, and
    the edge to t has weight 3 or more, reached while the other neighbour
    was left; when neither is, they are left last, joined by weight 4 or more.

    The same pass over the cyclic blocks (those that are not a bridge)
    decides the butterfly once the book is ruled out: it embeds iff some
    vertex lies in two cyclic blocks or has degree 4 or more inside one.
    A butterfly subdivision is two cycles that meet in exactly one vertex h.
    - Only if: each cycle lies in one block.  Two blocks put h in both;
      one block B gives h two edges of each cycle in B, four in all.
    - If v lies in cyclic blocks B1 and B2: a 2-connected block has a
      cycle through each vertex, and two blocks share at most v, so a
      cycle through v in each meets the other only at v.
    - If v has degree 4 or more in a block B, which is 2-connected as a
      bridge gives degree 1: let A = N_B(v).  Two disjoint paths of B - v,
      each joining two vertices of A, close two cycles through v that meet
      only at v.  B - v is connected, and a shortest path P = a...b in it
      between two vertices of A has no other vertex in A, so two more, c
      and d, lie off P.  If one component of B - v - P holds both, a c-d
      path inside it is disjoint from P.  Otherwise c lies in a component
      C and d in another, D, each with a neighbour on P as B - v is
      connected.  If C has one at p and D one at q != p, p nearer a say,
      then c...p...a (through C, then along P) and d...q...b are disjoint.
      Otherwise C and D attach to P at one vertex x only, and v and x are
      joined by four internally disjoint paths, through C, through D, and
      along P to a and to b, at most one of them an edge: the book, which
      is ruled out.
    The proof reads no K4-freeness.  The bowtie is then named without a
    test: every connected graph of cycle rank 3 or more holds one of the
    four patterns, and _decide checks that its search finds it.
    """
    book = hub = False
    # the vertices of the cyclic blocks, and their count with repeats
    seen: set[int] = set()
    count = 0
    for block in _blocks(comp):
        if len(block) == 1:
            continue
        nbrs: dict[int, dict[int, int]] = {}
        for a, b in block:
            nbrs.setdefault(a, {})[b] = 1
            nbrs.setdefault(b, {})[a] = 1
        seen.update(nbrs)
        count += len(nbrs)
        # in a block of rank 2 or less, a theta or a cycle, no degree exceeds 3
        if len(block) - len(nbrs) + 1 < 3:
            continue
        hub = hub or max(map(len, nbrs.values())) > 3
        queue = [v for v, ns in nbrs.items() if len(ns) == 2]
        while queue:
            v = queue.pop()
            ns = nbrs.get(v)
            if ns is None or len(ns) != 2:
                continue
            del nbrs[v]
            x, y = ns
            del nbrs[x][v], nbrs[y][v]
            weight = nbrs[x][y] = nbrs[y][x] = nbrs[x].get(y, 0) + 1
            book = book or weight > 3 or weight == 3 and len(nbrs) > 2
            queue += x, y
        if len(nbrs) > 2:
            return Pattern.K4
    if book:
        return Pattern.BOOK
    # a vertex of two cyclic blocks is counted twice
    return Pattern.BUTTERFLY if hub or count > len(seen) else Pattern.BOWTIE


def decide_support(g: SimpleGraph, cap: int = 64) -> Verdict:
    """Classify a graph by the sentences it can support.

    Decided from cycle rank and 2-core shape alone, by one leaf peel of g
    and one walk of its core's chains (see _kernel); when the answer is
    positive, a concrete pattern embedding is produced as evidence (first
    qualifying component, patterns in fixed order).

    The pattern is chosen by structure, not by search.  A qualifying
    component of cycle rank two holds neither K4 nor the book, which have
    rank three, and its core names its one pattern: one hub of degree 4 (a
    figure-eight) the butterfly, two hubs of degree 3 (a dumbbell) the
    bowtie.  No test, search or routing runs: the least branch map is read
    off the core's two loops, and each path is the one arc of a loop
    between its ends that the search's last step routes (see _core_branch).
    A component of rank three whose core is a subdivision of K4 (four hubs
    of degree 3, joined pairwise by six chains) or of the book (two hubs of
    degree 4, joined by four chains) is read off its chains the same way.
    A read-off builds no component and is answered at any size.  Every
    other component of rank three or more is built, one pass over its
    blocks names the first pattern in PATTERN_ORDER that embeds, K4, the
    book, the butterfly or else the bowtie (see _rank_three_pattern), and
    the search runs once, for it.  Every skipped search could only have
    failed, so the embedding is the one the search of every pattern in
    order finds first.  The cap guards that search alone: such a component
    above the cap raises HostTooLarge before any test runs.

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
    degree = g._core_degrees()
    kernels = _kernel(g, degree)
    if not kernels:
        return Verdict(False, reason=Reason.UNICYCLIC if any(degree.values()) else Reason.FOREST)
    if len(kernels) > 1:
        # in connected_components order: each kernel is one component's
        label = _component_of(g)
        kernels.sort(key=lambda kernel: label[kernel[0][0]])
    for hubs, chains in kernels:
        core = _core_branch(hubs, chains, degree)
        if core is not None:
            pattern, branch, paths = core
            return Verdict(True, pattern=pattern, embedding=Embedding(branch, paths))
        # a rank-2 kernel with no read-off is a theta
        if len(chains) == len(hubs) + 1:
            continue
        comp = connected_components(g)[_component_of(g)[hubs[0]]]
        if len(comp.vertices) > cap:
            raise HostTooLarge(cap, len(comp.vertices))
        pattern = _rank_three_pattern(comp)
        emb = find_topological_minor(comp, pattern, cap=cap)
        if emb is None:
            raise AssertionError(f"{pattern.name} was named but does not embed in {comp!r}")
        return Verdict(True, pattern=pattern, embedding=emb)
    return Verdict(False, reason=Reason.THETA_CORE)


def _kernel(g: SimpleGraph, degree: dict[int, int]) -> list[tuple[list[int], list[list[int]]]]:
    """The kernel of each component of g's 2-core that has a hub: its hubs,
    sorted, and its chains.

    degree holds g's core degrees.  The hubs are the core vertices of
    degree 3 or more, and a chain is a core path from a hub through
    vertices of degree 2 to a hub, as a vertex list; a loop starts and ends
    at its hub.  Cycles with no hub are left out.  One walk from the hubs
    finds every chain without building the core, each chain walked once,
    from the hub whose chains the walk takes first, so the chains joining
    two hubs all run the same way; the hubs it reaches group the chains by
    component.  The degrees of h hubs joined by c chains sum to 2c, so the
    kernel's cycle rank is r = c - h + 1, and as each hub has degree 3 or
    more, h <= 2(r - 1) and c <= 3(r - 1).
    """
    nbrs = g._neighbours
    kernels = []
    seen: set[int] = set()
    # the hub and the last step of every chain walked, which start it walked backwards
    walked: set[tuple[int, int]] = set()
    for start in [v for v, d in degree.items() if d > 2]:
        if start in seen:
            continue
        seen.add(start)
        hubs, chains = [start], []
        # the list grows as the walk reaches new hubs
        for hub in hubs:
            for first in nbrs[hub]:
                if not degree[first] or (hub, first) in walked:
                    continue
                prev, v, chain = hub, first, [hub]
                while degree[v] == 2:
                    chain.append(v)
                    for w in nbrs[v]:
                        if degree[w] and w != prev:
                            break
                    prev, v = v, w
                walked.add((v, prev))
                chain.append(v)
                chains.append(chain)
                if v not in seen:
                    seen.add(v)
                    hubs.append(v)
        hubs.sort()
        kernels.append((hubs, chains))
    return kernels


# the hub degrees of a 2-core, sorted by hub, that name the pattern its
# chains may hold: a figure-eight, a dumbbell or theta, K4 and the book
_CORE_SHAPES = {
    (4,): Pattern.BUTTERFLY,
    (3, 3): Pattern.BOWTIE,
    (3, 3, 3, 3): Pattern.K4,
    (4, 4): Pattern.BOOK,
}


def _core_branch(
    hubs: list[int], chains: list[list[int]], degree: dict[int, int]
) -> tuple[Pattern, dict[int, int], dict[Edge, tuple[int, ...]]] | None:
    """The pattern a kernel's core holds and the branch map and paths
    find_topological_minor(comp, pattern) returns, comp the component whose
    core it is, when the core is a figure-eight, a dumbbell, or a
    subdivision of K4 or of the book; None for any other core.

    hubs and chains are one kernel from _kernel, and degree the core degrees
    it was walked with.  A core of cycle rank r has excess sum(deg - 2) =
    2(r - 1), so the hub degrees tell the shapes apart before any chain is
    read:
    - Rank 2: one hub of degree 4 closes two loops, a figure-eight (the
      butterfly); two hubs of degree 3 make a theta, with no cut vertex and
      no pattern, unless each closes a loop, a dumbbell (the bowtie).  So
      at rank 2 the answer is not None exactly when
      cut_vertices(two_core(comp)) is not empty.
    - Rank 3: four hubs of degree 3 that six chains join pairwise are a K4
      subdivision, and two hubs of degree 4 that four chains join (at most
      one an edge, as comp is simple) a book subdivision.  K4 is the first
      pattern, and a book subdivision holds no K4, which needs four core
      vertices of degree 3.
    Every other core of rank 3 or more, among them those hub degrees with a
    loop or with two chains joining one pair of hubs, is left to
    _rank_three_pattern.

    The search tries each placed vertex's candidates in ascending order,
    and its forward checks drop only maps that cannot route, so it returns
    the least routable branch map in _plan(pattern) order.  Every pattern
    vertex lies on a pattern cycle, so its image lies in the core, and a
    simple path between core vertices never enters a tree hung on it.
    - The core's only cycles are a figure-eight's or dumbbell's two loops,
      one per pattern triangle.  So the butterfly's 3 goes to the hub, and
      the bowtie's 3 and 4, joined by a path that leaves both loops, to the
      two hubs; every other vertex goes into its triangle's loop, and every
      such map routes along the loops.  The least sends the butterfly's 1
      to the least non-hub vertex, 2 to the least other one of 1's loop,
      and 4 and 5 to the two least of the other loop; the bowtie's 3 to the
      lesser hub, 1 and 2 to the two least non-hub vertices of 3's loop,
      and 5 and 6 of 4's.
    - K4's four vertices, of degree 3, can go only to the four hubs, and
      every such map routes along the chains; the least sends 1, 2, 3 and
      4 to the sorted hubs.
    - The book's 2 and 4, of degree 4 and placed first, go to the two hubs,
      the lesser first.  Its 1, 3 and 5, of degree 2 and placed in that
      order, each join both hubs, so each goes inside a chain, whose two
      ends are its only way out, and no two share one.  Every such map
      routes, 2 to 4 along the fourth chain.  The least sends 1 to the
      least interior vertex, 3 to the least one off 1's chain, and 5 to the
      least one off both: the least interior vertices of the three chains
      whose least interior vertices are smallest, in that order.

    The search's last level routes every pattern edge with _route_paths,
    whose paths avoid every branch image but their own two ends.  Every
    hub is a branch image here, so such a path runs from its start along
    one chain, which it cannot leave before a hub, to the next branch
    image, its goal: it is an arc of the walked chains cut at the branch
    images.  Those arcs join the images as the pattern edges join the
    pattern's vertices, one arc per edge (a loop, with two images inside,
    makes a triangle, a book's page chain, with one, two edges, and every
    other chain one edge), so each edge's arc is the only path in the core
    between its ends that avoids the other images.  A simple path between
    core vertices never enters a tree hung on the core, so it is also the
    only one in comp, and _route_paths places it whatever the order.
    """
    pattern = _CORE_SHAPES.get(tuple(degree[v] for v in hubs))
    if pattern is None:
        return None
    # the two least interior vertices of each loop, the lesser hub's first,
    # and at one hub the loop that holds the least non-hub vertex first
    heads = [head for _, head in sorted((c[0], sorted(c[1:-1])[:2]) for c in chains if c[0] == c[-1])]
    if pattern is Pattern.BOWTIE and not heads:
        return None
    if pattern is Pattern.K4 or pattern is Pattern.BOOK:
        # a subdivision closes no loop, and K4's six chains join six pairs of hubs
        if heads or pattern is Pattern.K4 and len({(c[0], c[-1]) for c in chains}) < 6:
            return None
        if pattern is Pattern.BOOK:
            heads = [sorted(min(chain[1:-1]) for chain in chains if len(chain) > 2)[:3]]
    branch = dict(zip(_plan(pattern)[0], [*hubs, *(v for head in heads for v in head)]))
    # each chain cut at the branch images: one arc per pattern edge
    image = {b: p for p, b in branch.items()}
    arcs: dict[Edge, tuple[int, ...]] = {}
    for chain in chains:
        cut = 0
        for i in range(1, len(chain)):
            if chain[i] in image:
                u, v, arc = image[chain[cut]], image[chain[i]], tuple(chain[cut:i + 1])
                arcs[(u, v) if u < v else (v, u)] = arc if u < v else arc[::-1]
                cut = i
    return pattern, branch, arcs
