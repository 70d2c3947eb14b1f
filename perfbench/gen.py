"""Seeded benchmark inputs whose answers follow from how they were built.

Nothing here calls satminors: every input is plain DIMACS or edge-list
text, and every expected answer comes from the construction alone, so the
answers are an oracle independent of the code under test.

Sentences
    planted SAT      random 2-clauses each satisfied by a hidden assignment
    planted UNSAT    planted SAT plus an implication cycle x -> ... -> -x -> ... -> x
    unit chain       (l1), (-l1 | l2), ..., optionally closed by (-ln): forced by units
    equivalence      l1 <-> l2 <-> ... <-> ln as repeated pairs, plus a simple triangle
    random mixed     planted SAT plus consistent units and repeated pairs,
                     optionally poisoned by all four clauses on one pair

Graphs
    A spanning tree plus c chords has cycle rank c.  It supports an
    unsatisfiable sentence iff c >= 3, or c == 2 and the two fundamental
    cycles share no edge (their tree paths are edge-disjoint): sharing a
    path makes a theta core, sharing at most a vertex makes a figure-eight
    or dumbbell core.  Subdivided K4 and book graphs and figure-eights
    always qualify; trees, unicyclic graphs and theta graphs never do.
    Vertex ids are shuffled, except in figure-eights, so that the search
    order does not follow the construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sentence:
    """DIMACS text with its known answer.

    shape is the to_simple outcome ("SIMPLE", "TRIVIALLY-TRUE", "UNSAT") when
    the construction fixes it, else None; satisfiable is always known.
    """

    family: str
    text: str
    satisfiable: bool
    shape: str | None = None


@dataclass(frozen=True)
class Graph:
    """Edge-list text with its known verdict; reason names the certificate of a 'no'."""

    family: str
    text: str
    supports_unsat: bool
    reason: str | None = None


# ---------------------------------------------------------------------------
# sentences


def dimacs(nvars: int, clauses: list[tuple[int, ...]]) -> str:
    lines = [f"p cnf {nvars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _truth(rng: random.Random, nvars: int) -> list[bool]:
    return [False] + [rng.random() < 0.5 for _ in range(nvars)]


def _holds(truth: list[bool], lit: int) -> bool:
    return truth[abs(lit)] == (lit > 0)


def _signed(rng: random.Random, var: int) -> int:
    return var if rng.random() < 0.5 else -var


def _planted_clauses(rng: random.Random, truth: list[bool], count: int) -> list[tuple[int, int]]:
    nvars = len(truth) - 1
    out = []
    for _ in range(count):
        a, b = rng.sample(range(1, nvars + 1), 2)
        la, lb = _signed(rng, a), _signed(rng, b)
        if not (_holds(truth, la) or _holds(truth, lb)):
            la = -la
        out.append((la, lb))
    return out


def planted_sat(rng: random.Random, nclauses: int) -> Sentence:
    nvars = max(2, nclauses // 2)
    clauses = _planted_clauses(rng, _truth(rng, nvars), nclauses)
    return Sentence("planted-sat", dimacs(nvars, clauses), True)


def planted_unsat(rng: random.Random, nclauses: int) -> Sentence:
    nvars = max(8, nclauses // 2)
    half = rng.randint(2, min(32, (nvars - 1) // 2))
    x, *rest = rng.sample(range(1, nvars + 1), 1 + 2 * half)
    ys = [_signed(rng, v) for v in rest[:half]]
    zs = [_signed(rng, v) for v in rest[half:]]
    # implication a -> b is the clause (-a | b)
    walk = [x, *ys, -x, *zs, x]
    cycle = [(-a, b) for a, b in zip(walk, walk[1:])]
    clauses = _planted_clauses(rng, _truth(rng, nvars), max(0, nclauses - len(cycle))) + cycle
    rng.shuffle(clauses)
    return Sentence("planted-unsat", dimacs(nvars, clauses), False)


def _chain_literals(rng: random.Random, n: int) -> list[int]:
    return [_signed(rng, v) for v in rng.sample(range(1, n + 1), n)]


def unit_chain(rng: random.Random, n: int, contradict: bool) -> Sentence:
    lits = _chain_literals(rng, n)
    clauses: list[tuple[int, ...]] = [(lits[0],)]
    clauses += [(-a, b) for a, b in zip(lits, lits[1:])]
    if contradict:
        clauses.append((-lits[-1],))
    rng.shuffle(clauses)
    shape = "UNSAT" if contradict else "TRIVIALLY-TRUE"
    return Sentence("unit-chain", dimacs(n, clauses), not contradict, shape)


def equivalence_chain(rng: random.Random, n: int) -> Sentence:
    lits = _chain_literals(rng, n)
    clauses: list[tuple[int, ...]] = []
    for a, b in zip(lits, lits[1:]):
        clauses += [(-a, b), (a, -b)]
    # the chain collapses to one variable; a triangle hung off it stays simple
    t1, t2, t3 = n + 1, n + 2, n + 3
    clauses += [(lits[0], t1), (t1, t2), (t2, t3), (t1, t3)]
    rng.shuffle(clauses)
    return Sentence("equivalence-chain", dimacs(n + 3, clauses), True, "SIMPLE")


def random_mixed(rng: random.Random, nclauses: int, poison: bool) -> Sentence:
    nvars = max(4, nclauses // 2)
    truth = _truth(rng, nvars)
    clauses: list[tuple[int, ...]] = list(_planted_clauses(rng, truth, nclauses))
    for v in rng.sample(range(1, nvars + 1), max(1, nclauses // 40)):
        clauses.append((v if truth[v] else -v,))
    for la, lb in rng.sample(clauses[:nclauses], max(1, nclauses // 20)):
        # another clause on the same pair that the hidden assignment also satisfies
        options = [
            (sa * abs(la), sb * abs(lb))
            for sa in (1, -1)
            for sb in (1, -1)
            if (sa * abs(la), sb * abs(lb)) != (la, lb)
            and (_holds(truth, sa * abs(la)) or _holds(truth, sb * abs(lb)))
        ]
        clauses.append(rng.choice(options))
    if poison:
        a, b = rng.sample(range(1, nvars + 1), 2)
        clauses += [(a, b), (a, -b), (-a, b), (-a, -b)]
    rng.shuffle(clauses)
    return Sentence("random-mixed", dimacs(nvars, clauses), not poison)


# ---------------------------------------------------------------------------
# graphs


def edgelist(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Random vertex ids 1..n, so the search order does not follow the construction."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    out = [(min(u, v), max(u, v)) for u, v in out]
    rng.shuffle(out)
    return out


def _graph(rng, family, n, edges, supports, reason=None) -> Graph:
    return Graph(family, edgelist(_relabel(rng, n, edges)), supports, reason)


def _random_tree(rng: random.Random, n: int) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Random recursive tree on 1..n; returns its edges and parent map."""
    parent: dict[int, int] = {}
    edges = []
    for v in range(2, n + 1):
        parent[v] = rng.randrange(1, v)
        edges.append((parent[v], v))
    return edges, parent


def _tree_path_edges(parent: dict[int, int], u: int, v: int) -> set[tuple[int, int]]:
    def ancestry(x: int) -> list[int]:
        out = [x]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out

    au, av = ancestry(u), ancestry(v)
    common = set(au) & set(av)
    path = set()
    for chain in (au, av):
        for a, b in zip(chain, chain[1:]):
            if a in common:
                break
            path.add((min(a, b), max(a, b)))
    return path


def _chorded_tree(rng: random.Random, n: int, chords: int) -> tuple[list[tuple[int, int]], bool]:
    """A random tree on 1..n plus distinct chords; returns edges and the known verdict."""
    edges, parent = _random_tree(rng, n)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    missing = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in present]
    extra = rng.sample(missing, chords)
    if chords >= 3:
        supports = True
    elif chords == 2:
        p1, p2 = (_tree_path_edges(parent, u, v) for u, v in extra)
        supports = not (p1 & p2)
    else:
        supports = False
    return edges + extra, supports


def random_sparse(rng: random.Random, n: int, chords: int) -> Graph:
    edges, supports = _chorded_tree(rng, n, chords)
    reason = None if supports else {2: "theta-core", 1: "unicyclic-components", 0: "forest"}[chords]
    return _graph(rng, "random-sparse", n, edges, supports, reason)


def _subdivided(rng, family, base: list[tuple[int, int]], nbase: int, max_vertices: int) -> Graph:
    budget = max_vertices - nbase
    splits = [0] * len(base)
    for _ in range(rng.randint(budget // 2, budget)):
        splits[rng.randrange(len(base))] += 1
    edges = []
    nxt = nbase + 1
    for (u, v), k in zip(base, splits):
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        edges += list(zip(path, path[1:]))
    return _graph(rng, family, nxt - 1, edges, True)


K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
BOOK_EDGES = [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)]


def subdivided_k4(rng: random.Random, max_vertices: int) -> Graph:
    return _subdivided(rng, "subdivided-k4", K4_EDGES, 4, max_vertices)


def subdivided_book(rng: random.Random, max_vertices: int) -> Graph:
    return _subdivided(rng, "subdivided-book", BOOK_EDGES, 5, max_vertices)


def figure_eight(k: int) -> Graph:
    """Two k-cycles sharing vertex 1: a subdivided butterfly.

    Labelled in construction order and the same for every seed, so its
    search cost depends on k alone; it grows steeply with k.
    """
    a = [1, *range(2, k + 1)]
    b = [1, *range(k + 1, 2 * k)]
    edges = list(zip(a, a[1:] + a[:1])) + list(zip(b, b[1:] + b[:1]))
    return Graph("figure-eight", edgelist(edges), True)


def _hang_trees(rng: random.Random, edges: list[tuple[int, int]], n: int, total: int) -> None:
    """Attach vertices n+1..total as random trees on the existing ones."""
    for v in range(n + 1, total + 1):
        edges.append((rng.randrange(1, v), v))


def big_tree(rng: random.Random, n: int) -> Graph:
    edges, _ = _random_tree(rng, n)
    return _graph(rng, "tree", n, edges, False, "forest")


def big_unicyclic(rng: random.Random, n: int) -> Graph:
    k = rng.randint(3, n // 4)
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    _hang_trees(rng, edges, k, n)
    return _graph(rng, "unicyclic", n, edges, False, "unicyclic-components")


def big_theta(rng: random.Random, n: int) -> Graph:
    """Hubs 1 and 2 joined by three internally disjoint paths, with trees hung on."""
    edges: list[tuple[int, int]] = []
    nxt = 3
    for _ in range(3):
        k = rng.randint(1, n // 8)
        path = [1, *range(nxt, nxt + k), 2]
        nxt += k
        edges += list(zip(path, path[1:]))
    _hang_trees(rng, edges, nxt - 1, n)
    return _graph(rng, "theta", n, edges, False, "theta-core")


def sampled_connected(rng: random.Random, nedges: int, order: int | None = None) -> Graph:
    """A connected labelled graph on 1..n, n <= 6, with nedges edges.

    n is the given order, or uniform over the orders that admit nedges
    edges; the graph is a random tree plus random chords, labelled 1..n as
    in the enumerated corpus.
    """
    orders = [n for n in range(2, 7) if n - 1 <= nedges <= n * (n - 1) // 2]
    n = order if order in orders else rng.choice(orders)
    edges, supports = _chorded_tree(rng, n, nedges - n + 1)
    return Graph(f"sample-e{nedges}", edgelist(sorted(_relabel(rng, n, edges))), supports)
