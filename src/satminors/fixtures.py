"""Named graph fixtures used throughout the test suite and the CLI.

Parameterized families take a colon argument: ``cn:5`` is the 5-cycle and
``hills:3`` chains three triangles, consecutive ones sharing a vertex
(``hills:2`` is the butterfly, labelled identically).  The fifteen
``config:*`` fixtures are the minimal ways of joining three triangles
pairwise by a path (p), a shared vertex (v), or a shared edge (e); each
path is rendered as a single edge.
"""

from __future__ import annotations

from .graph import SimpleGraph
from .minors import Pattern, pattern_graph


class UnknownFixture(ValueError):
    pass


# Largest argument of a parametric family: cn:<k> and hills:<n> above it are
# refused before anything is built.  At the bound a build takes 20-70 ms;
# cn:10**8 would exhaust memory.
MAX_FIXTURE_ARG = 10_000


def _triangles(*triples: tuple[int, int, int], extra: tuple[tuple[int, int], ...] = ()):
    edges: list[tuple[int, int]] = []
    for a, b, c in triples:
        edges += [(a, b), (a, c), (b, c)]
    edges += list(extra)
    return SimpleGraph.of(edges)


def _cycle(k: int) -> SimpleGraph:
    if k < 3:
        raise UnknownFixture(f"a cycle needs at least 3 vertices, got {k}")
    return SimpleGraph.of([(i, i % k + 1) for i in range(1, k + 1)])


def _hills(n: int) -> SimpleGraph:
    if n < 1:
        raise UnknownFixture(f"hills takes a positive count, got {n}")
    return _triangles(*((2 * i - 1, 2 * i, 2 * i + 1) for i in range(1, n + 1)))


_K4 = pattern_graph(Pattern.K4)
# K4 minus the (3, 4) edge: shared edge (1, 2), apexes 3 and 4
_K4_MINUS_E = SimpleGraph.of([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
_BOOK = pattern_graph(Pattern.BOOK)

# Three triangles joined pairwise by paths (p), shared vertices (v), or
# shared edges (e); codes name the three pairwise joinings.
_CONFIGS: dict[str, SimpleGraph] = {
    # disjoint triangles, both connecting edges at one vertex of the first
    "ppp1": _triangles((1, 2, 3), (4, 5, 6), (7, 8, 9), extra=((3, 4), (3, 7))),
    # disjoint triangles, connecting edges at two different vertices
    "ppp2": _triangles((1, 2, 3), (4, 5, 6), (7, 8, 9), extra=((3, 4), (1, 7))),
    # butterfly plus a triangle joined to a wing vertex
    "ppv1": _triangles((1, 2, 3), (3, 4, 5), (6, 7, 8), extra=((1, 6),)),
    # butterfly plus a triangle joined to the hub
    "ppv2": _triangles((1, 2, 3), (3, 4, 5), (6, 7, 8), extra=((3, 6),)),
    # K4-e plus a triangle joined to a degree-2 apex
    "ppe1": SimpleGraph.of(sorted(_K4_MINUS_E.edges) + [(3, 5), (5, 6), (5, 7), (6, 7)]),
    # K4-e plus a triangle joined to a degree-3 vertex
    "ppe2": SimpleGraph.of(sorted(_K4_MINUS_E.edges) + [(1, 5), (5, 6), (5, 7), (6, 7)]),
    # chain of three triangles sharing vertices (the 3-hills graph)
    "pvv": _hills(3),
    # K4-e with a triangle sharing just an apex vertex
    "pve": SimpleGraph.of(sorted(_K4_MINUS_E.edges) + [(3, 5), (3, 6), (5, 6)]),
    # ring of three triangles, each pair sharing a different vertex
    "vvv1": _triangles((1, 2, 3), (3, 4, 5), (1, 5, 6)),
    # fan of three triangles sharing one vertex
    "vvv2": _triangles((1, 2, 3), (1, 4, 5), (1, 6, 7)),
    # K4-e plus a triangle bridging the two apexes
    "vve1": SimpleGraph.of(sorted(_K4_MINUS_E.edges) + [(3, 4), (3, 5), (4, 5)]),
    # K4-e with a triangle sharing just a degree-3 vertex
    "vve2": SimpleGraph.of(sorted(_K4_MINUS_E.edges) + [(1, 5), (1, 6), (5, 6)]),
    # K4-e with a triangle glued on an apex-to-shared edge
    "vee": SimpleGraph.of(sorted(_K4_MINUS_E.edges) + [(2, 5), (3, 5)]),
    "eee1": _K4,
    "eee2": _BOOK,
}

CONFIG_CODES = tuple(sorted(_CONFIGS))


def fixture_names() -> tuple[str, ...]:
    plain = ("c3", "k4", "k4-e", "butterfly", "bowtie", "book", "square-butterfly")
    parametric = ("cn:<k>", "hills:<n>")
    configs = tuple(f"config:{code}" for code in CONFIG_CODES)
    return plain + parametric + configs


def fixture_graph(name: str) -> SimpleGraph:
    """Materialize a named fixture as a concrete labelled graph."""
    key = name.strip().lower()
    if key == "c3":
        return _cycle(3)
    if key == "k4":
        return _K4
    if key == "k4-e":
        return _K4_MINUS_E
    if key == "butterfly":
        return pattern_graph(Pattern.BUTTERFLY)
    if key == "bowtie":
        return pattern_graph(Pattern.BOWTIE)
    if key == "book":
        return _BOOK
    if key == "square-butterfly":
        # two 4-cycles sharing the edge (3, 4)
        return SimpleGraph.of([(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)])
    if ":" in key:
        head, _, arg = key.partition(":")
        if head == "cn":
            return _cycle(_int_arg(name, arg))
        if head == "hills":
            return _hills(_int_arg(name, arg))
        if head == "config":
            if arg in _CONFIGS:
                return _CONFIGS[arg]
    raise UnknownFixture(f"unknown fixture {name!r}")


def _int_arg(name: str, arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise UnknownFixture(f"bad fixture argument in {name!r}") from None
    if value > MAX_FIXTURE_ARG:
        raise UnknownFixture(f"fixture argument in {name!r} exceeds {MAX_FIXTURE_ARG}")
    return value
