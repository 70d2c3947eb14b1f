"""Undirected graphs over positive integer vertex ids, plus the operations
tying sentences to graphs: support extraction, subdivision, restricted edge
contraction, cycle rank, 2-core, cut vertices, blocks, and components.

Graphs are immutable values.  Edges are canonical (u, v) tuples with u < v.
Edge contraction is only allowed at edges not contained in any triangle, so
it never creates a parallel edge and simple graphs stay simple.

A graph builds its neighbour lists once, in no fixed order.  The component
labelling and the leaf peel (_core_degrees, read by two_core, decide_support,
census and the pattern search), whose results do not depend on that order,
read them as they are; every other pass reads the public adjacency, the same
lists sorted.  Both are computed once per graph object and kept in its
__dict__, beside the cached adjacency, so equality, hashing and repr, which
read only the fields, never see them; callers only read them.

The edge-list reader takes canonical text, `u v` lines with one space,
each ended by a newline, as edgelist_to_text writes a graph with no
isolated vertex and no comment, in a few C-level passes and one token
stream.  Every other form goes through the line parser, with
line-numbered errors.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from operator import lt, ne
from typing import Iterable, Sequence

from .formula import Cnf2, ParseError, _strict_int, _Value

Edge = tuple[int, int]


class GraphError(ValueError):
    """Base class for graph-operation errors."""


class NotNontrivial(GraphError):
    """The sentence is constant true or false and has no support graph."""


class UnitClausePresent(GraphError):
    """A unit clause has a one-vertex support, not an edge."""


class MultiEdgePresent(GraphError):
    def __init__(self, pair: Edge, multiplicity: int):
        super().__init__(f"edge {pair} has multiplicity {multiplicity}")
        self.pair = pair
        self.multiplicity = multiplicity


class EdgeAbsent(GraphError):
    """The named edge is not in the graph."""


class EdgeInTriangle(GraphError):
    """Contracting this edge would merge two adjacent neighbourhoods."""


def edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at {u}")
    if u < 1 or v < 1:
        raise ValueError("vertex ids are positive integers")
    return (u, v) if u < v else (v, u)


class SimpleGraph(_Value):
    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]) -> None:
        vertices = frozenset(vertices)
        if vertices and min(vertices) < 1:
            raise ValueError("vertex ids are positive integers")
        edges = frozenset(edge(*e) for e in edges)
        for u, v in edges:
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, vertices: frozenset[int], edges: frozenset[Edge]) -> SimpleGraph:
        """A graph from sets that are already canonical, without validating them.

        The caller guarantees positive vertex ids and (u, v) edges with
        u < v and both ends in the vertex set.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @classmethod
    def of(cls, edges: Iterable[tuple[int, int]], isolated: Iterable[int] = ()) -> SimpleGraph:
        es = frozenset(edge(u, v) for u, v in edges)
        vs = {v for e in es for v in e} | set(isolated)
        return cls(frozenset(vs), es)

    @cached_property
    def _neighbours(self) -> dict[int, list[int]]:
        """Every vertex's neighbours, in no fixed order."""
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return {v: tuple(sorted(ns)) for v, ns in self._neighbours.items()}

    def _core_degrees(self) -> dict[int, int]:
        """Every vertex's degree in the 2-core, 0 for a vertex peeled away.

        Leaves are peeled to a fixpoint; a vertex keeps the count of its
        neighbours still in the graph until it is peeled.  The peel runs
        once per graph: the dict is kept in __dict__ under "_core_degree",
        a key other than this method's name, which an instance attribute
        would shadow, and every later call returns the same dict.  Callers
        must not change it.
        """
        degree = self.__dict__.get("_core_degree")
        if degree is not None:
            return degree
        nbrs = self._neighbours
        degree = {v: len(ns) for v, ns in nbrs.items()}
        leaves = [v for v, d in degree.items() if d == 1]
        # the list grows as the walk runs: a vertex joins it when its count
        # falls to one, once, and the 2-core left does not depend on the order
        for v in leaves:
            degree[v] = 0
            for w in nbrs[v]:
                d = degree[w]
                if d:
                    degree[w] = d - 1
                    if d == 2:
                        leaves.append(w)
        # setdefault: callers racing on one graph all get the first peel stored
        return self.__dict__.setdefault("_core_degree", degree)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        vs = ",".join(map(str, sorted(self.vertices)))
        es = " ".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"SimpleGraph<{vs}|{es}>"


class Multigraph(_Value):
    """Vertex set plus an edge multiset; no self-loops."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]) -> None:
        vertices = frozenset(vertices)
        edges = tuple(sorted(edge(*e) for e in edges))
        for u, v in edges:
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def multiplicities(self) -> Counter[Edge]:
        return Counter(self.edges)

    @property
    def is_simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)


def associated_multigraph(s: Cnf2) -> Multigraph:
    """The support multigraph: one vertex per variable, one edge per clause."""
    if not s.is_nontrivial:
        raise NotNontrivial("constant sentences have no support graph")
    edges = []
    for clause in s.clauses:
        if len(clause) == 1:
            raise UnitClausePresent(f"unit clause {clause!r} has no edge support")
        edges.append((abs(clause[0]), abs(clause[1])))
    return Multigraph(frozenset(s.variables()), tuple(edges))


def as_simple(g: Multigraph) -> SimpleGraph:
    """Reinterpret a multiplicity-free multigraph as a simple graph."""
    for pair, mult in sorted(g.multiplicities().items()):
        if mult > 1:
            raise MultiEdgePresent(pair, mult)
    return SimpleGraph(g.vertices, frozenset(g.edges))


def support_graph(s: Cnf2) -> SimpleGraph:
    """The simple support graph of a simple sentence.

    Equal to as_simple(associated_multigraph(s)), with the same errors,
    built in one pass over the clauses with no multigraph between.
    """
    if not s.is_nontrivial:
        raise NotNontrivial("constant sentences have no support graph")
    clauses = s.clauses
    try:
        # a clause's ints are sorted by variable, so each pair is an edge (u, v), u < v
        edges = frozenset([(abs(a), abs(b)) for a, b in clauses])
    except ValueError:  # a unit clause has one int to unpack
        unit = next(c for c in clauses if len(c) == 1)
        raise UnitClausePresent(f"unit clause {unit!r} has no edge support") from None
    if len(edges) < len(clauses):
        counts = Counter([(abs(a), abs(b)) for a, b in clauses])
        pair = min(p for p, mult in counts.items() if mult > 1)
        raise MultiEdgePresent(pair, counts[pair])
    return SimpleGraph._trusted(frozenset(chain.from_iterable(edges)), edges)


def _component_of(g: SimpleGraph) -> dict[int, int]:
    """Component number of every vertex, numbered in order of smallest vertex id.

    The labelling is kept in g's __dict__, as decide_support keeps its
    verdicts, so the components and the search built on one graph read one
    labelling.  Callers must not change it.
    """
    label = g.__dict__.get("_component_of")
    if label is not None:
        return label
    adj = g._neighbours
    label = {}
    count = 0
    for start in sorted(adj):
        if start in label:
            continue
        label[start] = count
        todo = [start]
        while todo:
            for w in adj[todo.pop()]:
                if w not in label:
                    label[w] = count
                    todo.append(w)
        count += 1
    return g.__dict__.setdefault("_component_of", label)


def connected_components(g: SimpleGraph) -> list[SimpleGraph]:
    """Maximal connected subgraphs, ordered by smallest vertex id.

    A connected graph is its own component: the graph itself is returned.
    """
    label = _component_of(g)
    count = len(set(label.values()))
    if count == 1:
        return [g]
    vertices: list[set[int]] = [set() for _ in range(count)]
    edges: list[set[Edge]] = [set() for _ in vertices]
    for v, i in label.items():
        vertices[i].add(v)
    for e in g.edges:
        edges[label[e[0]]].add(e)
    return [SimpleGraph._trusted(frozenset(vs), frozenset(es)) for vs, es in zip(vertices, edges)]


def cycle_rank(g: SimpleGraph) -> int:
    """Dimension of the cycle space: |E| - |V| + number of components."""
    return len(g.edges) - len(g.vertices) + len(set(_component_of(g).values()))


def two_core(g: SimpleGraph) -> SimpleGraph:
    """Maximal subgraph of minimum degree two: delete degree <= 1 vertices to a fixpoint."""
    degree = g._core_degrees()
    edges = frozenset(e for e in g.edges if degree[e[0]] and degree[e[1]])
    return SimpleGraph._trusted(frozenset(v for v, d in degree.items() if d), edges)


def cut_vertices(g: SimpleGraph) -> set[int]:
    """Vertices whose removal increases the component count (articulation points).

    They are the vertices that lie in two or more blocks.
    """
    seen: set[int] = set()
    result: set[int] = set()
    for block in _blocks(g):
        ends = {v for e in block for v in e}
        result |= ends & seen
        seen |= ends
    return result


def _blocks(g: SimpleGraph) -> list[list[Edge]]:
    """Edge lists of the blocks (maximal 2-connected subgraphs and bridges).

    One lowlink DFS with an edge stack (Hopcroft-Tarjan 1973): every edge
    is pushed once, as (v, w) in the direction the DFS first meets it, and
    a tree edge (parent, v) with low[v] >= disc[parent] closes the block
    of the edges pushed from it on.
    """
    adj = g.adjacency
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[list[Edge]] = []
    edges: list[Edge] = []
    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        # a frame holds a vertex, its DFS parent (0 at the root, ids are
        # positive), its neighbour iterator and where its tree edge sits in edges
        stack = [(root, 0, iter(adj[root]), 0)]
        while stack:
            v, parent, nbrs, at = stack[-1]
            for w in nbrs:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, v, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if w != parent and disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        blocks.append(edges[at:])
                        del edges[at:]
    return blocks


def is_subgraph(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Labelled containment: both the vertex and edge sets are subsets."""
    return g.vertices <= h.vertices and g.edges <= h.edges


def subdivide_edge(g: SimpleGraph, e: Edge) -> SimpleGraph:
    """Replace the edge by a two-edge path through a fresh vertex (max id + 1)."""
    e = edge(*e)
    if e not in g.edges:
        raise EdgeAbsent(f"edge {e} not in graph")
    w = max(g.vertices) + 1
    u, v = e
    edges = (g.edges - {e}) | {edge(u, w), edge(w, v)}
    return SimpleGraph(g.vertices | {w}, frozenset(edges))


def contract_edge(g: SimpleGraph, e: Edge) -> SimpleGraph:
    """Merge the endpoints of an edge into a fresh vertex (max id + 1).

    Only edges not contained in a triangle may be contracted; anything else
    would create a parallel edge and leave the simple-graph world.
    """
    e = edge(*e)
    if e not in g.edges:
        raise EdgeAbsent(f"edge {e} not in graph")
    u, v = e
    common = set(g.neighbors(u)) & set(g.neighbors(v))
    if common:
        raise EdgeInTriangle(f"edge {e} lies in a triangle with {sorted(common)}")
    w = max(g.vertices) + 1
    edges = set()
    for x, y in g.edges - {e}:
        x2 = w if x in (u, v) else x
        y2 = w if y in (u, v) else y
        edges.add(edge(x2, y2))
    vertices = (g.vertices - {u, v}) | {w}
    return SimpleGraph(frozenset(vertices), frozenset(edges))


def smooth_vertex(g: SimpleGraph, v: int) -> SimpleGraph:
    """Undo a subdivision: replace a degree-2 vertex by an edge joining its neighbours."""
    nbrs = g.neighbors(v)
    if len(nbrs) != 2:
        raise GraphError(f"vertex {v} has degree {len(nbrs)}, not 2")
    x, y = nbrs
    if g.has_edge(x, y):
        raise GraphError(f"smoothing {v} would duplicate edge {edge(x, y)}")
    edges = {e for e in g.edges if v not in e} | {edge(x, y)}
    return SimpleGraph(g.vertices - {v}, frozenset(edges))


# ---------------------------------------------------------------------------
# text formats


# Most vertices one `n <count>` line may declare; a larger count is refused
# before any vertex is built.  At the bound `analyze` takes 1.4 s and 260 MB
# (2 vCPUs); n 10**8 would exhaust memory.
MAX_VERTEX_COUNT = 1_000_000


def _canonical_ids(text: str) -> list[int] | None:
    """The ids of canonical text, every line `<digits> <digits>\n`, else None.

    Deleting the digits leaves one space and one newline per line, so a line
    holds at most two tokens, and two tokens per line leave none empty.
    """
    lines = text.count("\n")
    if not (text.endswith("\n") and text.isascii()
            and text.encode().translate(None, b"0123456789") == b" \n" * lines):
        return None
    try:
        ids = list(map(int, text.split()))
    except ValueError:  # more digits than int() accepts: the line parser reports it
        return None
    return ids if len(ids) == 2 * lines else None


def parse_edgelist(text: str) -> SimpleGraph:
    """Parse the edge-list format.

    `#` starts a comment, `n <count>` declares vertices 1..count (count at
    most MAX_VERTEX_COUNT), `v <id>` an isolated vertex, and `u v` an edge.
    Canonical text is read as one token stream.  Every other text, and every
    error, goes through the line parser, so every form gives the same graph
    or error.
    """
    ids = _canonical_ids(text)
    if ids is not None and min(ids) >= 1:
        us, vs = ids[0::2], ids[1::2]
        if all(map(lt, us, vs)):  # as edgelist_to_text writes them
            return SimpleGraph._trusted(frozenset(ids), frozenset(zip(us, vs)))
        if all(map(ne, us, vs)):
            edges = frozenset([(u, v) if u < v else (v, u) for u, v in zip(us, vs)])
            return SimpleGraph._trusted(frozenset(ids), edges)
    return _parse_edgelist_lines(text)


def _parse_edgelist_lines(text: str) -> SimpleGraph:
    """The line-by-line parser: every form of the format, with line-numbered errors."""
    vertices: set[int] = set()
    edges: set[Edge] = set()
    declared = 0  # the largest count, so repeated `n` lines build one range
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            if parts[0] == "n" and len(parts) == 2:
                count = _natural(parts[1], 0)
                if count > MAX_VERTEX_COUNT:
                    raise ParseError(lineno, f"vertex count {count} exceeds {MAX_VERTEX_COUNT}")
                declared = max(declared, count)
            elif parts[0] == "v" and len(parts) == 2:
                vertices.add(_natural(parts[1]))
            elif len(parts) == 2:
                u, v = _natural(parts[0]), _natural(parts[1])
                edges.add(edge(u, v))
                vertices.update((u, v))
            else:
                raise ValueError
        except ParseError:
            raise
        except ValueError:
            raise ParseError(lineno, f"bad edge-list line: {stripped!r}") from None
    vertices.update(range(1, declared + 1))
    return SimpleGraph(frozenset(vertices), frozenset(edges))


def _natural(token: str, least: int = 1) -> int:
    """The int a token of ASCII digits spells, if it is at least least."""
    n = _strict_int(token)
    if n < least:
        raise ValueError(token)
    return n


def edgelist_to_text(g: SimpleGraph, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    covered = {v for e in g.edges for v in e}
    for v in sorted(g.vertices - covered):
        lines.append(f"v {v}")
    for u, v in g.sorted_edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def to_dot(g: SimpleGraph, highlight_edges: Iterable[Edge] = (),
           highlight_vertices: Iterable[int] = ()) -> str:
    """Graphviz text: an undirected graph with numeric vertex names."""
    marked_e = {edge(u, v) for u, v in highlight_edges}
    marked_v = set(highlight_vertices)
    lines = ["graph {"]
    for v in sorted(g.vertices):
        attr = " [color=red]" if v in marked_v else ""
        lines.append(f"  {v}{attr};")
    for u, v in g.sorted_edges():
        attr = " [color=red]" if (u, v) in marked_e else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
