"""Satisfiability oracle for sentences with clauses of length one or two.

Uses the implication-graph method: each clause contributes the two
implications equivalent to it, and the sentence is unsatisfiable exactly
when some variable shares a strongly connected component with its own
negation.  Models are read off the reverse topological order of the
components.  Output is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Assignment, Cnf2


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    # Total assignment over the sentence's variables when satisfiable.
    model: Assignment | None = None
    # A variable whose two polarities share a component when unsatisfiable;
    # absent for the constant-false sentence, which has no variable to blame.
    conflict_var: int | None = None


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
    for row in adj:
        row.sort()

    comp = _tarjan_components(adj)

    conflicts = [v for i, v in enumerate(variables) if comp[2 * i] == comp[2 * i + 1]]
    if conflicts:
        return SolveResult(False, conflict_var=conflicts[0])
    # components are numbered in pop order (reverse topological order), so a
    # literal is true when its component closes before its negation's
    model = {v: comp[2 * i] < comp[2 * i + 1] for i, v in enumerate(variables)}
    return SolveResult(True, model=model)


def check_model(s: Cnf2, m: Assignment) -> bool:
    """True iff applying the assignment reduces the sentence to true.

    That is, the sentence is true, or every clause has a literal the
    assignment makes true; no rewritten sentence is built.
    """
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
            for w in succ:
                if index[w] == UNVISITED:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                # a visited vertex with no component yet is still on the stack
                if comp[w] == UNVISITED:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comp
