"""Shared test corpora (exhaustive small graphs, trees, random sentences) and oracles.

The CI subsample is fixed: every connected labelled graph on at most five
vertices plus a seed-20260809 sample of 300 six-vertex graphs.  Set
SATMINORS_FULL=1 to run corpus-wide checks on all 22537 connected labelled
graphs with at most six vertices and nine edges.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from collections import Counter, defaultdict, deque
from heapq import heappop, heappush
from pathlib import Path

from satminors import (
    CensusReport,
    Clause,
    Cnf2,
    Literal,
    SimpleGraph,
    SimplifyOutcome,
    SimplifyResult,
    SolveResult,
    SubstitutionStep,
    apply_assignment,
    as_simple,
    associated_multigraph,
    base_formula,
    collapse_pair,
    decide_support,
    edge,
    is_subgraph,
    reduce,
    rename_variables,
    solve,
    substitute,
    support_graph,
)
from satminors.census import EdgePolarity, _slot_layout
from satminors.formula import ClauseTooLong, ParseError, VariableOutOfRange, _clause, _pair_clauses
from satminors.graph import _blocks, _component_of, connected_components, cut_vertices
from satminors.minors import (
    PATTERN_ORDER,
    Embedding,
    HostTooLarge,
    Pattern,
    Reason,
    Verdict,
    _pattern,
    _plan,
    _route_paths,
    _simple_paths,
    find_topological_minor,
    pattern_graph,
)
from satminors.witness import EdgeAbsentInSupport, NotASubgraph, VariableCollision, WitnessError

CORPUS_SEED = 20260809
FULL_CORPUS = os.environ.get("SATMINORS_FULL", "") not in ("", "0")
FULL_CORPUS_SIZE = 22537
SIX_VERTEX_SAMPLE = 300


def connected_labeled_graphs(max_vertices: int = 6, max_edges: int = 9):
    """All connected graphs on vertex sets {1..n}, n <= max_vertices."""
    for n in range(1, max_vertices + 1):
        possible = list(itertools.combinations(range(1, n + 1), 2))
        for k in range(0, min(len(possible), max_edges) + 1):
            for subset in itertools.combinations(possible, k):
                g = SimpleGraph.of(subset, isolated=range(1, n + 1))
                if _spans_connected(g, n):
                    yield g


def _spans_connected(g: SimpleGraph, n: int) -> bool:
    seen = {1}
    stack = [1]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


_CACHED_CORPUS: list[SimpleGraph] | None = None


def full_corpus() -> list[SimpleGraph]:
    global _CACHED_CORPUS
    if _CACHED_CORPUS is None:
        _CACHED_CORPUS = list(connected_labeled_graphs())
    return _CACHED_CORPUS


def ci_subsample() -> list[SimpleGraph]:
    corpus = full_corpus()
    small = [g for g in corpus if len(g.vertices) <= 5]
    six = [g for g in corpus if len(g.vertices) == 6]
    rng = random.Random(CORPUS_SEED)
    return small + rng.sample(six, SIX_VERTEX_SAMPLE)


def acceptance_corpus() -> list[SimpleGraph]:
    return full_corpus() if FULL_CORPUS else ci_subsample()


def prufer_tree(sequence: list[int]) -> SimpleGraph:
    """Decode a Prufer sequence over {1..n} into its labelled tree."""
    n = len(sequence) + 2
    degree = {v: 1 for v in range(1, n + 1)}
    for v in sequence:
        degree[v] += 1
    edges = []
    seq = list(sequence)
    for v in seq:
        leaf = min(u for u in degree if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        del degree[leaf]
    u, w = sorted(u for u in degree if degree[u] == 1)
    edges.append((u, w))
    return SimpleGraph.of(edges)


def tree_corpus(max_edges: int = 8) -> list[SimpleGraph]:
    """Deterministic tree sample: paths, stars, and seeded random trees."""
    trees = []
    for n in range(2, max_edges + 2):
        trees.append(SimpleGraph.of([(i, i + 1) for i in range(1, n)]))
    for leaves in range(2, max_edges + 1):
        trees.append(SimpleGraph.of([(1, k) for k in range(2, leaves + 2)]))
    rng = random.Random(CORPUS_SEED)
    for n in range(max(4, max_edges - 1), max_edges + 2):
        for _ in range(4):
            trees.append(prufer_tree([rng.randint(1, n) for _ in range(n - 2)]))
    assert all(len(t.edges) <= max_edges for t in trees)
    return trees


def random_sparse_graph(rng: random.Random, n: int, chords: int) -> SimpleGraph:
    """A random recursive tree on 1..n plus distinct chords, vertex ids shuffled."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    missing = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in edges]
    edges.update(rng.sample(missing, chords))
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return SimpleGraph.of((ids[u - 1], ids[v - 1]) for u, v in edges)


def sparse_graph_stream(count: int) -> list[SimpleGraph]:
    """The first count graphs random_sparse_graph(rng, 8 + k % 23, 2 + k % 5)
    draws from random.Random(20261104): trees on 8-30 vertices plus 2-6 chords."""
    rng = random.Random(20261104)
    return [random_sparse_graph(rng, 8 + k % 23, 2 + k % 5) for k in range(count)]


def random_subdivision(rng: random.Random, base: list[tuple[int, int]], n: int) -> SimpleGraph:
    """The graph on 1..k given by base edges, each subdivided a random number of
    times, with n vertices in all and the vertex ids shuffled."""
    k = max(v for e in base for v in e)
    splits = Counter(rng.randrange(len(base)) for _ in range(n - k))
    edges = []
    top = k
    for i, (u, v) in enumerate(base):
        path = [u, *range(top + 1, top + splits[i] + 1), v]
        top += splits[i]
        edges += zip(path, path[1:])
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return SimpleGraph.of((ids[u - 1], ids[v - 1]) for u, v in edges)


def random_multigraph_raw(rng: random.Random, max_vars: int = 8, max_clauses: int = 20):
    """Raw clause lists whose support is a multigraph: repeated pairs and units."""
    nv = rng.randint(1, max_vars)
    nc = rng.randint(1, max_clauses)
    raw = []
    for _ in range(nc):
        if nv == 1 or rng.random() < 0.15:
            raw.append([rng.choice([1, -1]) * rng.randint(1, nv)])
        else:
            a, b = rng.sample(range(1, nv + 1), 2)
            raw.append([rng.choice([1, -1]) * a, rng.choice([1, -1]) * b])
    return raw


def random_cnf(rng: random.Random, max_vars: int = 8, max_clauses: int = 20) -> Cnf2:
    return reduce(random_multigraph_raw(rng, max_vars, max_clauses))


def brute_force_satisfiable(s: Cnf2) -> bool:
    """Independent oracle: try all 2**n assignments."""
    if s.is_true:
        return True
    if s.is_false:
        return False
    variables = sorted(s.variables())
    for bits in range(1 << len(variables)):
        asg = {v: bool((bits >> i) & 1) for i, v in enumerate(variables)}
        if apply_assignment(s, asg).is_true:
            return True
    return False


def formula_at_by_polarity(edges: list[tuple[int, int]], index: int) -> Cnf2:
    """Reference decoder: one EdgePolarity clause per edge, most significant first."""
    shifts = range(2 * len(edges) - 2, -1, -2)
    return Cnf2.of([EdgePolarity(index >> k & 3).clause(u, v) for (u, v), k in zip(edges, shifts)])


def _count_solver(edges: list[tuple[int, int]], lo: int, hi: int) -> tuple[int, int | None]:
    sat = 0
    first_unsat: int | None = None
    for index in range(lo, hi):
        if solve(formula_at_by_polarity(edges, index)).satisfiable:
            sat += 1
        elif first_unsat is None:
            first_unsat = index
    return sat, first_unsat


def frontier_dp_sorted(edges: list[tuple[int, int]]) -> tuple[int, int, int | None]:
    """Reference census: the sorted-order frontier DP that keeps every transition.

    Exact (sat count, unsat count, first unsatisfiable index) over all 4**E
    vectors; a full backward pass over the stored transitions finds the index.
    """
    steps, width = _slot_layout(edges)
    n_assignments = 1 << width
    full = (1 << n_assignments) - 1
    false_at = []
    for k in range(width):
        block = (1 << (1 << k)) - 1
        false_at.append(sum(block << j for j in range(0, n_assignments, 2 << k)))
    layer = {1: 1}  # before any edge: the empty assignment, one prefix
    transitions = []
    unsat = 0
    for i, (su, sv, entering, leaving) in enumerate(steps):
        remaining = 4 ** (len(edges) - 1 - i)
        value_u = (false_at[su], full ^ false_at[su])
        value_v = (false_at[sv], full ^ false_at[sv])
        # polarity code c rules out (t_u, t_v) == (c >> 1, c & 1)
        keeps = [full ^ (value_u[c >> 1] & value_v[c & 1]) for c in range(4)]
        leave = [(false_at[k], full ^ false_at[k], 1 << k) for k in leaving]
        children: dict[int, tuple[int, ...]] = {}
        successor: dict[int, int] = {}
        for state, count in layer.items():
            grown = state
            for k in entering:
                grown |= grown << (1 << k)
            kids = []
            for keep in keeps:
                kid = grown & keep
                for false_k, true_k, shift in leave:
                    kid = (kid & false_k) | ((kid & true_k) >> shift)
                kids.append(kid)
                if kid:
                    successor[kid] = successor.get(kid, 0) + count
                else:
                    unsat += count * remaining
            children[state] = tuple(kids)
        transitions.append(children)
        layer = successor
    sat = sum(layer.values())
    if not unsat:
        return sat, unsat, None
    return sat, unsat, _first_unsat_backward(transitions)


def _first_unsat_backward(transitions: list[dict[int, tuple[int, ...]]]) -> int:
    """The smallest index whose sentence is unsatisfiable; one must exist."""
    doomed: list[set[int]] = [set()]  # states from which some suffix ends empty
    for children in reversed(transitions):
        later = doomed[-1]
        doomed.append({s for s, kids in children.items() if any(k == 0 or k in later for k in kids)})
    doomed.reverse()
    state, index = 1, 0
    for i, children in enumerate(transitions):
        for code, kid in enumerate(children[state]):
            if kid == 0:
                # every suffix is unsatisfiable; the smallest is all PP
                return (4 * index + code) * 4 ** (len(transitions) - 1 - i)
            if kid in doomed[i + 1]:
                state, index = kid, 4 * index + code
                break
    raise AssertionError("census lost its unsatisfiable prefix")


def small_frontier_order_by_scan(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Reference greedy order: scan every remaining edge for the next one, quadratic."""
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


def simple_paths_recursive(host: SimpleGraph, start: int, goal: int, blocked: set[int]):
    """Reference path enumeration: one recursive call per path vertex, same DFS order."""
    path = [start]
    on_path = {start}

    def walk(v: int):
        for w in host.neighbors(v):
            if w == goal:
                yield path + [goal]
            elif w not in blocked and w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from walk(w)
                path.pop()
                on_path.remove(w)

    yield from walk(start)


def lift_subdivision_by_clause_of(s: Cnf2, e: tuple[int, int], w: int) -> Cnf2:
    """Reference lift_subdivision: the clause on e replaced by two built by Clause.of."""
    u, v = edge(*e)
    if s.is_nontrivial and w in s.variables():
        raise VariableCollision(f"variable {w} already occurs")
    matches = _pair_clauses(s, u, v)
    if not matches:
        raise EdgeAbsentInSupport(f"no clause over ({u}, {v})")
    if len(matches) > 1:
        raise WitnessError(f"sentence is not simple at ({u}, {v})")
    (old,) = matches
    lit_u, lit_v = old  # u < v, and a clause's ints are sorted by variable
    rest = [c for c in s.clauses if c is not old]
    rest.append(Clause.of(lit_u, w))
    rest.append(Clause.of(-w, lit_v))
    return Cnf2.of(rest)


def extend_to_supergraph_by_clause_of(s: Cnf2, h: SimpleGraph) -> Cnf2:
    """Reference extend_to_supergraph: one Clause.of per missing edge, in sorted order."""
    if s.is_false:
        return s
    if s.is_true:
        covered: frozenset = frozenset()
        clauses: list[Clause] = []
    else:
        g = support_graph(s)
        if not is_subgraph(g, h):
            raise NotASubgraph("the sentence's support is not contained in the target graph")
        covered = g.edges
        clauses = list(s.clauses)
    uncovered_vertices = h.vertices - {x for e in h.edges for x in e}
    if uncovered_vertices:
        raise NotASubgraph(
            f"isolated vertices {sorted(uncovered_vertices)} cannot support any clause"
        )
    for x, y in sorted(h.edges - covered):
        clauses.append(Clause.of(x, y))
    return Cnf2.of(clauses)


def witness_by_lifting(g: SimpleGraph, cap: int = 64) -> Cnf2 | None:
    """Reference witness: rename the base sentence, then lift one interior vertex at a time.

    It runs the reference lift and extension above, so it shares no
    construction code with synthesize_witness.
    """
    verdict = decide_support(g, cap=cap)
    if not verdict.supports_unsat:
        return None
    emb = verdict.embedding
    s = rename_variables(base_formula(verdict.pattern).cnf, dict(emb.branch_map))
    for pattern_edge in sorted(emb.paths):
        path = list(emb.paths[pattern_edge])
        if path[0] > path[-1]:
            path.reverse()
        far = path[-1]
        anchor = path[0]
        for inner in path[1:-1]:
            s = lift_subdivision_by_clause_of(s, edge(anchor, far), inner)
            anchor = inner
    return extend_to_supergraph_by_clause_of(s, g)


def support_graph_by_multigraph(s: Cnf2) -> SimpleGraph:
    """Reference support graph: build the support multigraph, then check it is simple."""
    return as_simple(associated_multigraph(s))


def witness_by_clause_of(g: SimpleGraph, cap: int = 64) -> Cnf2 | None:
    """Reference witness: synthesize_witness's chains, each clause built by Clause.of.

    Its support check goes through the support multigraph.
    """
    verdict = decide_support(g, cap=cap)
    if not verdict.supports_unsat:
        return None
    emb = verdict.embedding
    branch = emb.branch_map
    clauses: list[Clause] = []
    for a, b in base_formula(verdict.pattern).cnf.clauses:
        path = emb.paths[(abs(a), abs(b))]
        lit = branch[abs(a)] if a > 0 else -branch[abs(a)]
        far_lit = branch[abs(b)] if b > 0 else -branch[abs(b)]
        if path[0] > path[-1]:
            path = path[::-1]
            lit, far_lit = far_lit, lit
        anchor, far = path[0], path[-1]
        for inner in path[1:-1]:
            if anchor < far:
                clauses.append(Clause.of(lit, inner))
                lit = -inner
            else:
                clauses.append(Clause.of(lit, -inner))
                lit = inner
            anchor = inner
        clauses.append(Clause.of(lit, far_lit))
    uncovered = g.vertices - {x for e in g.edges for x in e}
    if uncovered:
        raise NotASubgraph(f"isolated vertices {sorted(uncovered)} cannot support any clause")
    used = {edge(x, y) for path in emb.paths.values() for x, y in zip(path, path[1:])}
    clauses += [Clause.of(x, y) for x, y in g.edges - used]
    s = Cnf2.of(clauses)
    assert not solve(s).satisfiable
    assert support_graph_by_multigraph(s) == g
    return s


def atlas_graphs() -> list[SimpleGraph]:
    """The graphs of networkx.graph_atlas_g() with at least one edge, vertices 1..n.

    Every graph on at most seven vertices, up to isomorphism: 1245 graphs,
    isolated vertices kept.
    """
    import networkx as nx

    return [
        SimpleGraph.of([(u + 1, v + 1) for u, v in a.edges()], isolated=[v + 1 for v in a.nodes()])
        for a in nx.graph_atlas_g()
        if a.number_of_edges()
    ]


def perfbench_texts(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (family, text) input of every operation of a benchmark workload for a seed."""
    import satminors

    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        import ops
    finally:
        sys.path.remove(bench)
    return [(op.case.family, op.case.text) for op in ops.build(workload, seed, False, satminors)[0]]


def perfbench_analyze_graphs(seed: int, families: tuple[str, ...]) -> list[SimpleGraph]:
    """The graphs of the named families in the benchmark's analyze workload for a seed."""
    from satminors import parse_edgelist

    return [parse_edgelist(text) for family, text in perfbench_texts("analyze", seed) if family in families]


# graph._is_canonical as it was before a token count replaced its substring scans
def is_canonical_by_scans(text: str) -> bool:
    """Whether every line of text is `<digits> <digits>`, ended by a newline.

    Deleting the digits leaves one space and one newline per line, and no
    space starts or ends a line, so no token is empty.  Each test is one
    C-level pass; the regex tries a match at every character.
    """
    return (
        text.endswith("\n")
        and text.isascii()
        and text.encode().translate(None, b"0123456789") == b" \n" * text.count("\n")
        and not text.startswith(" ")
        and "\n " not in text
        and " \n" not in text
    )


def census_by_solver(g: SimpleGraph) -> CensusReport:
    """Reference census: solve each of the 4**E sentences on g one by one."""
    edges = g.sorted_edges()
    total = 4 ** len(edges)
    sat, first_unsat = _count_solver(edges, 0, total)
    example = None if first_unsat is None else formula_at_by_polarity(edges, first_unsat)
    return CensusReport(g, total, sat, total - sat, example)


def connected_components_by_edge_scan(g: SimpleGraph) -> list[SimpleGraph]:
    """Reference components: BFS per component, then one scan of every edge per component."""
    seen: set[int] = set()
    components = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        queue = deque([start])
        comp = {start}
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    queue.append(w)
        comp_edges = frozenset(e for e in g.edges if e[0] in comp)
        components.append(SimpleGraph(frozenset(comp), comp_edges))
    return components


def cycle_rank_by_components(g: SimpleGraph) -> int:
    """Reference cycle rank: |E| - |V| + the number of built component subgraphs."""
    return len(g.edges) - len(g.vertices) + len(connected_components_by_edge_scan(g))


def cut_vertices_by_child_lists(g: SimpleGraph) -> set[int]:
    """Reference articulation points: lowlink DFS that rebuilds a vertex's child list on resume."""
    visited: set[int] = set()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    result: set[int] = set()
    counter = 0
    for root in sorted(g.vertices):
        if root in visited:
            continue
        root_children = 0
        stack: list[tuple[int, int | None, int]] = [(root, None, 0)]
        while stack:
            v, parent, pos = stack[-1]
            if pos == 0:
                visited.add(v)
                disc[v] = low[v] = counter
                counter += 1
            children = [w for w in g.neighbors(v) if w != parent]
            descended = False
            while pos < len(children):
                w = children[pos]
                pos += 1
                if w not in visited:
                    stack[-1] = (v, parent, pos)
                    stack.append((w, v, 0))
                    descended = True
                    break
                low[v] = min(low[v], disc[w])
            if descended:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if parent == root:
                    root_children += 1
                elif low[v] >= disc[parent]:
                    result.add(parent)
        if root_children >= 2:
            result.add(root)
    return result


def tarjan_components_by_edge_positions(adj: list[list[int]]) -> list[int]:
    """Reference SCCs: iterative Tarjan with (vertex, edge index) frames and an on-stack array."""
    n = len(adj)
    UNVISITED = -1
    index = [UNVISITED] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [UNVISITED] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != UNVISITED:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(edge_pos, len(adj[v])):
                w = adj[v][i]
                if index[w] == UNVISITED:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def solve_with_sorted_rows(s: Cnf2) -> SolveResult:
    """Reference solve: sorts every implication row, reads model and conflict by index."""
    if s.is_true:
        return SolveResult(True, model={})
    if s.is_false:
        return SolveResult(False, conflict_var=None)
    variables = sorted(s.variables())
    node: dict[int, int] = {}
    for i, v in enumerate(variables):
        node[v] = 2 * i
        node[-v] = 2 * i + 1
    adj: list[list[int]] = [[] for _ in range(2 * len(variables))]
    for clause in s.clauses:
        a = clause[0]
        b = clause[-1]
        adj[node[-a]].append(node[b])
        if a != b:
            adj[node[-b]].append(node[a])
    for row in adj:
        row.sort()
    comp = tarjan_components_by_edge_positions(adj)
    conflicts = [v for i, v in enumerate(variables) if comp[2 * i] == comp[2 * i + 1]]
    if conflicts:
        return SolveResult(False, conflict_var=conflicts[0])
    model = {v: comp[2 * i] < comp[2 * i + 1] for i, v in enumerate(variables)}
    return SolveResult(True, model=model)


def check_model_by_literals(s: Cnf2, m) -> bool:
    """Reference model check: look up each literal's variable, clause by clause."""
    if not s.is_nontrivial:
        return s.is_true
    for clause in s.clauses:
        for x in clause:
            v = abs(x)
            if v in m and bool(m[v]) == (x > 0):
                break
        else:
            return False
    return True


def two_core_by_networkx(g: SimpleGraph) -> SimpleGraph:
    """Reference 2-core: networkx's k-core with k = 2."""
    import networkx as nx

    host = nx.Graph(list(g.edges))
    host.add_nodes_from(g.vertices)
    core = nx.k_core(host, 2)
    return SimpleGraph(core.nodes, core.edges)


def kernel_by_networkx(g: SimpleGraph) -> list[tuple[list[int], list[list[int]]]]:
    """Reference kernel: for each component of networkx's 2-core that has a
    hub (core degree 3 or more), its sorted hubs and its chains.

    Every edge between two hubs is a chain.  Every other chain is one
    component of the core less its hubs, a path, with a hub added at each
    end: one neighbour of each end vertex is a hub, and both of a lone one.
    """
    core = two_core_by_networkx(g)
    kernels = []
    for comp in connected_components(core):
        hubs = sorted(v for v in comp.vertices if comp.degree(v) > 2)
        if not hubs:
            continue
        chains = [list(e) for e in sorted(comp.edges) if e[0] in hubs and e[1] in hubs]
        inner = SimpleGraph(comp.vertices - set(hubs), [e for e in comp.edges if not set(e) & set(hubs)])
        for part in connected_components(inner):
            path = [min(v for v in part.vertices if part.degree(v) < 2)]
            while len(path) < len(part.vertices):
                path.append(next(w for w in part.neighbors(path[-1]) if w not in path[-2:]))
            first, last = ([w for w in comp.neighbors(v) if w in hubs] for v in (path[0], path[-1]))
            chains.append([first[0], *path, last[-1]])
        kernels.append((hubs, chains))
    return kernels


def decide_support_by_search(g: SimpleGraph, cap: int = 64) -> Verdict:
    """Reference verdict: search every pattern of rank at most the component's, in order."""
    components = connected_components(g)
    ranks = [len(c.edges) - len(c.vertices) + 1 for c in components]
    for comp, rank in zip(components, ranks):
        if rank >= 3 or (rank == 2 and cut_vertices(two_core_by_networkx(comp))):
            for pattern in PATTERN_ORDER:
                pg = pattern_graph(pattern)
                if len(pg.edges) - len(pg.vertices) + 1 > rank:
                    continue
                emb = find_topological_minor(comp, pattern, cap=cap)
                if emb is not None:
                    return Verdict(True, pattern=pattern, embedding=emb)
            raise AssertionError(f"no pattern embeds in {comp!r}")
    if any(r >= 2 for r in ranks):
        return Verdict(False, reason=Reason.THETA_CORE)
    if any(r == 1 for r in ranks):
        return Verdict(False, reason=Reason.UNICYCLIC)
    return Verdict(False, reason=Reason.FOREST)


def verify_embedding_by_adjacency(host: SimpleGraph, pattern: Pattern, emb: Embedding) -> bool:
    """Reference embedding check: minors.verify_embedding as it was when it
    read each step from the host's sorted adjacency."""
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
    adj = host.adjacency
    seen_internal: set[int] = set()
    for (u, v), path in emb.paths.items():
        if len(path) < 2 or path[0] != bm[u] or path[-1] != bm[v]:
            return False
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if b not in adj.get(a, ()):
                return False
        inner = set(path[1:-1])
        if inner & branch_images or inner & seen_internal:
            return False
        seen_internal.update(inner)
    return True


def decide_support_by_components(g: SimpleGraph, cap: int = 64) -> Verdict:
    """Reference verdict: build every component, then decide each in turn.

    The decider that read the 2-core only component by component; a
    rank-2 component's shape is read as
    cut_vertices(two_core_by_networkx(comp)).  A component of rank 3 or
    more is searched for K4, then for the book when the flow finds it, then
    for the butterfly and the bowtie.
    """
    components = connected_components(g)
    ranks = [len(c.edges) - len(c.vertices) + 1 for c in components]
    for comp, rank in zip(components, ranks):
        if rank >= 3 or (rank == 2 and cut_vertices(two_core_by_networkx(comp))):
            if len(comp.vertices) > cap:
                raise HostTooLarge(cap, len(comp.vertices))
            for pattern in PATTERN_ORDER:
                if pattern is Pattern.K4 and rank < 3:
                    continue
                if pattern is Pattern.BOOK and (rank < 3 or not has_book_by_flow(comp)):
                    continue
                emb = find_topological_minor(comp, pattern, cap=cap)
                if emb is not None:
                    return Verdict(True, pattern=pattern, embedding=emb)
            raise AssertionError(f"no pattern embeds in {comp!r}")
    if any(r >= 2 for r in ranks):
        return Verdict(False, reason=Reason.THETA_CORE)
    if any(r == 1 for r in ranks):
        return Verdict(False, reason=Reason.UNICYCLIC)
    return Verdict(False, reason=Reason.FOREST)


def has_book_by_flow(g: SimpleGraph) -> bool:
    """Reference book test: a flow for every pair of hubs of every block.

    The book K_{1,1,3} is a topological minor iff two vertices have four
    internally disjoint paths between them: at most one of the paths is an
    edge, and the other three each carry a page vertex.  Those paths lie in
    one block, whose cycle rank is then at least 3 and in which both ends
    have degree at least 4.
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


def has_butterfly_by_cycles(g: SimpleGraph) -> bool:
    """Reference butterfly test: two cycles of g that meet in exactly one vertex.

    A butterfly subdivision is two such cycles.  Enumerates every cycle
    (networkx.simple_cycles), so it suits graphs of small cycle rank.
    """
    import networkx as nx

    cycles = [set(c) for c in nx.simple_cycles(nx.Graph(sorted(g.edges)))]
    return any(len(a & b) == 1 for a, b in itertools.combinations(cycles, 2))


def _disjoint_paths(adj: dict[int, list[int]], s: int, t: int, want: int) -> int:
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


def hung_core_graph(rng: random.Random, core: str, n: int) -> SimpleGraph:
    """A connected graph on n vertices, ids shuffled, with the named 2-core.

    core "tree" gives a random recursive tree; "cycle" a cycle of 3 to n / 4
    vertices, "theta" two hubs joined by three paths of 2 to n / 8 + 1
    edges and "figure-eight" two cycles of 3 to n / 8 + 1 vertices through
    one hub, each with random trees hung on to make up n vertices.  Only
    the figure-eight supports an unsatisfiable sentence.
    """
    edges: list[tuple[int, int]] = []
    if core == "cycle":
        k = rng.randint(3, n // 4)
        edges = [(i, i % k + 1) for i in range(1, k + 1)]
    elif core in ("theta", "figure-eight"):
        # paths between hubs 1 and 2, or loops at hub 1, of k inner vertices each
        (start, end), paths, least = ((1, 2), 3, 1) if core == "theta" else ((1, 1), 2, 2)
        top = end
        for _ in range(paths):
            k = rng.randint(least, n // 8)
            path = [start, *range(top + 1, top + k + 1), end]
            top += k
            edges += zip(path, path[1:])
    top = max((v for e in edges for v in e), default=1)
    edges += [(rng.randrange(1, v), v) for v in range(top + 1, n + 1)]
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return SimpleGraph.of((ids[u - 1], ids[v - 1]) for u, v in edges)


def strip(n: int) -> SimpleGraph:
    """The triangle strip on 1..n: edges (i, i + 1) and (i, i + 2)."""
    return SimpleGraph.of([(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)])


def ladder(n: int) -> SimpleGraph:
    """The 2 x n ladder: paths 1..n and n+1..2n joined by the rungs (i, n + i)."""
    rails = [(i, i + 1) for i in range(1, n)] + [(n + i, n + i + 1) for i in range(1, n)]
    return SimpleGraph.of(rails + [(i, n + i) for i in range(1, n + 1)])


def find_topological_minor_unpruned(
    host: SimpleGraph, pattern: Pattern, cap: int = 64
) -> Embedding | None:
    """Reference search: place every pattern vertex, then route paths on complete maps only."""
    if len(host.vertices) > cap:
        raise HostTooLarge(cap, len(host.vertices))
    pg = pattern_graph(pattern)
    if len(host.vertices) < len(pg.vertices) or len(host.edges) < len(pg.edges):
        return None

    comp_of = _component_of(host)
    pattern_vertices = sorted(pg.vertices, key=lambda v: (-pg.degree(v), v))
    candidates = {
        pv: [hv for hv in sorted(host.vertices) if host.degree(hv) >= pg.degree(pv)]
        for pv in pattern_vertices
    }
    if any(not c for c in candidates.values()):
        return None

    branch: dict[int, int] = {}
    taken: set[int] = set()

    found: Embedding | None = None

    def assign(i: int) -> bool:
        nonlocal found
        if i == len(pattern_vertices):
            placed = route_paths_unpruned(host, pg, branch)
            if placed is not None:
                found = Embedding(dict(branch), placed)
                return True
            return False
        pv = pattern_vertices[i]
        home = comp_of[branch[pattern_vertices[0]]] if i else None
        for hv in candidates[pv]:
            if hv in taken:
                continue
            if home is not None and comp_of[hv] != home:
                continue
            branch[pv] = hv
            taken.add(hv)
            if assign(i + 1):
                return True
            del branch[pv]
            taken.remove(hv)
        return False

    assign(0)
    return found


def find_topological_minor_by_host_degree(
    host: SimpleGraph, pattern: Pattern, cap: int = 64
) -> Embedding | None:
    """Reference search: find_topological_minor with the host-degree candidate rule.

    A pattern vertex of degree d takes every host vertex of degree d or
    more as a candidate, tree vertices included, and no leaf peel is read.
    The placement order, the forward checks and the routing are the
    library's, so the two searches differ only in the candidates tried.
    """
    if len(host.vertices) > cap:
        raise HostTooLarge(cap, len(host.vertices))
    order, needs, prefix, n_edges = _plan(pattern)
    adj = host.adjacency
    if len(adj) < len(order) or len(host.edges) < n_edges:
        return None
    candidates = [[hv for hv in sorted(adj) if len(adj[hv]) >= d] for d in needs]
    if not all(candidates):
        return None
    comp_of = _component_of(host)
    branch: dict[int, int] = {}

    def assign(i: int) -> Embedding | None:
        home = comp_of[branch[order[0]]] if i else None
        for hv in candidates[i]:
            if hv in branch.values() or (home is not None and comp_of[hv] != home):
                continue
            branch[order[i]] = hv
            routed = _route_paths(host, prefix[i], branch) if i > 1 else {}
            if routed is not None:
                found = Embedding(branch, routed) if i == len(order) - 1 else assign(i + 1)
                if found is not None:
                    return found
            del branch[order[i]]
        return None

    return assign(0)


def hung(rng: random.Random, core: list[tuple[int, int]], max_edges: int) -> SimpleGraph:
    """core with random trees hung on it, at most max_edges edges in all, ids shuffled."""
    edges = list(core)
    top = max(v for e in core for v in e)
    for v in range(top + 1, top + 1 + rng.randint(1, max_edges - len(core))):
        edges.append((rng.randrange(1, v), v))
    ids = list(range(1, v + 1))
    rng.shuffle(ids)
    return SimpleGraph.of((ids[a - 1], ids[b - 1]) for a, b in edges)


def route_paths_unpruned(host: SimpleGraph, pg: SimpleGraph, branch) -> dict | None:
    """Reference routing of every edge of the pattern graph pg, most constrained edge first."""
    branch_images = set(branch.values())
    internals: set[int] = set()
    placed: dict = {}

    def free_degree(hv: int) -> int:
        return sum(1 for w in host.neighbors(hv) if w not in internals)

    def constraint(e):
        u, v = e
        return (min(free_degree(branch[u]), free_degree(branch[v])), e)

    def route(remaining: list) -> bool:
        if not remaining:
            return True
        e = min(remaining, key=constraint)
        rest = [x for x in remaining if x != e]
        start, goal = branch[e[0]], branch[e[1]]
        blocked = (branch_images - {start, goal}) | internals
        for path in _simple_paths(host, start, goal, blocked):
            inner = set(path[1:-1])
            internals.update(inner)
            placed[e] = tuple(path)
            if route(rest):
                return True
            internals.difference_update(inner)
            del placed[e]
        return False

    if route(sorted(pg.edges)):
        return placed
    return None


def _strict_int(token: str) -> int:
    """int() on ASCII digits only: no underscore and no other script's digits."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return int(token)


def parse_dimacs_by_lines(text: str | bytes) -> Cnf2:
    """Reference DIMACS reader: one line at a time, one int() per token."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(0, f"input is not valid UTF-8: {exc}") from None
    nvars: int | None = None
    clauses: list[tuple[list[int], int]] = []
    pending: list[int] = []
    pending_line = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if nvars is not None:
                raise ParseError(lineno, "duplicate problem line")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(lineno, f"malformed problem line: {stripped!r}")
            try:
                nvars, _ = _strict_int(parts[2]), _strict_int(parts[3])
            except ValueError:
                raise ParseError(lineno, f"malformed problem line: {stripped!r}") from None
            if nvars < 0:
                raise ParseError(lineno, "negative variable count")
            continue
        if nvars is None:
            raise ParseError(lineno, "clause appears before the problem line")
        for token in stripped.split():
            try:
                n = _strict_int(token)
            except ValueError:
                raise ParseError(lineno, f"bad token {token!r}") from None
            if n == 0:
                clauses.append((pending, lineno))
                pending = []
            else:
                if abs(n) > nvars:
                    raise VariableOutOfRange(
                        f"line {lineno}: literal {n} exceeds declared count {nvars}"
                    )
                pending.append(n)
        pending_line = lineno
    if pending:
        raise ParseError(pending_line, "clause not terminated by 0")
    if nvars is None:
        raise ParseError(0, "missing problem line")
    for ints, lineno in clauses:
        if len(set(ints)) > 2:
            raise ClauseTooLong(f"line {lineno}: clause has {len(set(ints))} distinct literals")
    return reduce([ints for ints, _ in clauses])


def eliminate_units_by_rewriting(s: Cnf2) -> tuple[Cnf2, tuple[SubstitutionStep, ...]]:
    """Reference unit elimination: rewrite the whole sentence once per binding."""
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


def _smallest_heavy_pair(s: Cnf2) -> tuple[int, int] | None:
    counts = Counter((abs(c[0]), abs(c[1])) for c in s.clauses if len(c) == 2)
    heavy = [p for p, n in counts.items() if n >= 2]
    return min(heavy) if heavy else None


def to_simple_by_rewriting(s: Cnf2) -> SimplifyOutcome:
    """Reference simplifier: clear units, recount every pair, collapse the smallest, repeat."""
    trace: list[SubstitutionStep] = []
    current = s
    while True:
        current, t = eliminate_units_by_rewriting(current)
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


class OccurrencesByMovingTarget:
    """Reference occurrence index: each binding moves every clause of its target.

    The simplifier's index before the representative map; it takes time
    quadratic in the length of clause_fan.
    """

    def __init__(self, s: Cnf2):
        self.clauses: set[Clause] = set()
        self.occ: dict[int, set[Clause]] = defaultdict(set)
        self.pairs: dict[tuple[int, int], set[Clause]] = defaultdict(set)
        self.units: list[tuple[int, bool]] = []
        self.heavy: list[tuple[int, int]] = []
        self.trace: list[SubstitutionStep] = []
        self.false = s.is_false
        for c in s.clauses:
            self._add(c)

    def _add(self, c: Clause) -> None:
        if c in self.clauses:
            return
        self.clauses.add(c)
        x = c[0]
        self.occ[abs(x)].add(c)
        if len(c) == 1:
            heappush(self.units, (abs(x), x < 0))
            return
        y = c[1]
        self.occ[abs(y)].add(c)
        pair = (abs(x), abs(y))
        group = self.pairs[pair]
        group.add(c)
        if len(group) == 2:
            heappush(self.heavy, pair)

    def bind(self, step: SubstitutionStep) -> None:
        self.trace.append(step)
        if self.false:
            return
        v = step.target
        r = step.replacement
        image = r if isinstance(r, bool) else r.to_int()
        for c in self.occ.pop(v, ()):
            self.clauses.remove(c)
            x, others = (c[0], c[1:]) if abs(c[0]) == v else (c[1], c[:1])
            if others:
                self.occ[abs(others[0])].remove(c)
                pair = (abs(c[0]), abs(c[1]))
                group = self.pairs[pair]
                group.remove(c)
                if not group:
                    del self.pairs[pair]
            if isinstance(image, bool):
                if image == (x > 0):
                    continue
                if not others:
                    self.false = True
                    return
                self._add(_clause(others))
                continue
            z = image if x > 0 else -image
            if not others or others[0] == z:
                self._add(_clause((z,)))
            elif others[0] != -z:
                self._add(_clause((z, others[0])))

    def clear_units(self) -> None:
        while self.units and not self.false:
            var, negative = heappop(self.units)
            if ((-var if negative else var),) in self.clauses:
                self.bind(SubstitutionStep(var, not negative))

    def heavy_pair(self) -> tuple[int, int] | None:
        while self.heavy:
            pair = heappop(self.heavy)
            if len(self.pairs.get(pair, ())) >= 2:
                return pair
        return None

    def sentence(self, s: Cnf2) -> Cnf2:
        if not self.trace:
            return s
        if self.false:
            return Cnf2.false()
        return Cnf2.of(self.clauses)


def _collapse_steps_by_cases(a: int, b: int, clauses) -> tuple[SubstitutionStep, ...]:
    """collapse_pair's bindings for the clauses over the pair a < b, with checked steps."""
    ruled_out = {(c[0] < 0, c[1] < 0) for c in clauses}
    alive = [(ta, tb) for ta in (True, False) for tb in (True, False) if (ta, tb) not in ruled_out]
    if not alive:
        return SubstitutionStep(a, True), SubstitutionStep(b, True)
    if len(alive) == 1:
        ((ta, tb),) = alive
        return SubstitutionStep(a, ta), SubstitutionStep(b, tb)
    (ta, tb), (ua, ub) = alive
    if ta == ua:
        return (SubstitutionStep(a, ta),)
    if tb == ub:
        return (SubstitutionStep(b, tb),)
    return (SubstitutionStep(b, Literal(a, ta == tb)),)


def to_simple_by_moving_targets(s: Cnf2) -> SimplifyOutcome:
    """Reference simplifier: to_simple over OccurrencesByMovingTarget."""
    work = OccurrencesByMovingTarget(s)
    while True:
        work.clear_units()
        if work.false or not work.clauses:
            break
        pair = work.heavy_pair()
        if pair is None:
            break
        for step in _collapse_steps_by_cases(*pair, work.pairs[pair]):
            work.bind(step)
    if work.false:
        result = SimplifyResult.UNSATISFIABLE
    elif work.clauses:
        result = SimplifyResult.SIMPLE
    else:
        result = SimplifyResult.TRIVIALLY_TRUE
    return SimplifyOutcome(result, work.sentence(s), tuple(work.trace))


def eliminate_units_by_moving_targets(s: Cnf2) -> tuple[Cnf2, tuple[SubstitutionStep, ...]]:
    """Reference unit elimination over OccurrencesByMovingTarget."""
    work = OccurrencesByMovingTarget(s)
    work.clear_units()
    return work.sentence(s), tuple(work.trace)


def equivalence_chain(n: int) -> Cnf2:
    """Variables 1..n pairwise equal along the chain, plus the clause (1 n)."""
    raw = [[1, n]]
    for i in range(1, n):
        raw += [[i, -(i + 1)], [-i, i + 1]]
    return reduce(raw)


def unit_chain(n: int) -> Cnf2:
    """The unit (1) and the implications i -> i+1 for i < n."""
    return reduce([[1]] + [[-i, i + 1] for i in range(1, n)])


def clause_fan(m: int) -> Cnf2:
    """(i or -(i+1)) for i < m and (-i or m) for i < m.

    Only the pair (m-1, m) repeats at first.  Each collapse binds the larger
    variable of the smallest repeated pair to the smaller, which moves every
    clause gathered on it one variable down and repeats the next pair.
    """
    return reduce([[i, -(i + 1)] for i in range(1, m)] + [[-i, m] for i in range(1, m)])
