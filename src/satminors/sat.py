"""Satisfiability oracle for sentences with clauses of length one or two.

Uses the implication-graph method: each clause contributes the two
implications equivalent to it, and the sentence is unsatisfiable exactly
when some variable shares a strongly connected component with its own
negation.  Models are read off the reverse topological order of the
components.  Output is deterministic for a fixed input.

The search visits each literal's successors in ascending node order, and
the models depend on that order.  The implication rows come out sorted
without a sort: a sentence stores its clauses in canonical order, and
literal nodes are numbered in the order of the literal codes.  The row of a
literal y first gets the edges of the clauses (a, -y), whose variable a is
smaller and which come first, then the unit (-y), then the pairs (-y, b) in
the order of b.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, lt

from .formula import Assignment, Cnf2, _Value


class SolveResult(_Value):
    _fields = ("satisfiable", "model", "conflict_var")

    def __init__(self, satisfiable: bool, model: Assignment | None = None,
                 conflict_var: int | None = None) -> None:
        object.__setattr__(self, "satisfiable", satisfiable)
        # Total assignment over the sentence's variables when satisfiable.
        object.__setattr__(self, "model", model)
        # A variable whose two polarities share a component when unsatisfiable;
        # absent for the constant-false sentence, which has no variable to blame.
        object.__setattr__(self, "conflict_var", conflict_var)


def solve(s: Cnf2) -> SolveResult:
    """Decide satisfiability, producing a model or a conflict variable."""
    if s.is_true:
        return SolveResult(True, model={})
    if s.is_false:
        return SolveResult(False, conflict_var=None)

    variables = sorted(s.variables())
    # literal node: 2*i for the positive literal of variables[i], 2*i+1 negated
    node: dict[int, int] = {}
    for i, v in enumerate(variables):
        node[v] = 2 * i
        node[-v] = 2 * i + 1
    adj: list[list[int]] = [[] for _ in range(2 * len(variables))]
    for clause in s.clauses:
        a = clause[0]
        b = clause[-1]
        # (a or b) is (not a -> b) and (not b -> a); a unit has a == b
        adj[node[-a]].append(node[b])
        if a != b:
            adj[node[-b]].append(node[a])

    comp = _tarjan_components(adj)

    pos, neg = comp[0::2], comp[1::2]
    conflict = next(compress(variables, map(eq, pos, neg)), None)
    if conflict is not None:
        return SolveResult(False, conflict_var=conflict)
    # components are numbered in pop order (reverse topological order), so a
    # literal is true when its component closes before its negation's
    return SolveResult(True, model=dict(zip(variables, map(lt, pos, neg))))


def check_model(s: Cnf2, m: Assignment) -> bool:
    """True iff applying the assignment reduces the sentence to true.

    That is, the sentence is true, or every clause has a literal the
    assignment makes true; no rewritten sentence is built.
    """
    if not s.is_nontrivial:
        return s.is_true
    # the literals the assignment makes true; variables are positive, so a
    # key below 1 names none
    true = {v if value else -v for v, value in m.items() if v > 0}
    return not any(map(true.isdisjoint, s.clauses))


def _tarjan_components(adj: list[list[int]]) -> list[int]:
    """Strongly connected components, iterative, numbered in pop order."""
    n = len(adj)
    UNVISITED = -1
    index = [UNVISITED] * n
    low = [0] * n
    comp = [UNVISITED] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != UNVISITED:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            # low[v] stays in a local while v's frame is on top; it is stored
            # before descending, as the child lowers low[v] when it returns
            lowv = low[v]
            for w in succ:
                if index[w] == UNVISITED:
                    low[v] = lowv
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                # a visited vertex with no component yet is still on the stack
                if comp[w] == UNVISITED and index[w] < lowv:
                    lowv = index[w]
            else:
                work.pop()
                if lowv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    parent = work[-1][0]
                    if lowv < low[parent]:
                        low[parent] = lowv
    return comp
