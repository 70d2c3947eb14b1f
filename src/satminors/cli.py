"""Command-line front door.

Subcommands: reduce, solve, analyze, census, minor, fixture.  Inputs are
DIMACS CNF or edge-list text from a file argument or stdin.  Exit codes
are stable: 0 ok/satisfiable, 20 unsatisfiable, 64 usage error, 65 parse
error, 70 resource cap exceeded or an internal check failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from .census import TooManyEdges, census
from .formula import Cnf2, FormulaError, ParseError, _strict_int, cnf_to_dimacs, parse_dimacs
from .sat import check_model, solve

# Each handler imports the layers it runs, so a process compiles only those.
if TYPE_CHECKING:
    from .graph import SimpleGraph
    from .minors import Embedding

EXIT_OK = 0
EXIT_UNSAT = 20
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_CAP = 70
EXIT_INTERNAL = 70

JSON_FORMAT_VERSION = 1

# alias -> Pattern member name
_PATTERN_ALIASES = {
    "k4": "K4",
    "book": "BOOK",
    "k113": "BOOK",
    "butterfly": "BUTTERFLY",
    "v-config": "BUTTERFLY",
    "bowtie": "BOWTIE",
    "p-config": "BOWTIE",
}


class _UsageError(Exception):
    pass


def _check(ok: object, what: str) -> None:
    """Raise AssertionError unless ok; unlike assert, it also runs under -O."""
    if not ok:
        raise AssertionError(what)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        raise _UsageError(message)


def _read_input(path: str | None) -> str:
    """The text of the input file, or of stdin for None or "-", decoded as UTF-8."""
    try:
        if path is None or path == "-":
            if sys.stdin is None:
                # the interpreter started with file descriptor 0 closed
                raise _UsageError("stdin is closed; name an input file")
            # a replaced stdin (io.StringIO) holds text and has no buffer
            stdin = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(0, f"input is not valid UTF-8: {exc}") from None


def _read_graph(path: str | None) -> SimpleGraph:
    from .graph import parse_edgelist

    return parse_edgelist(_read_input(path))


def _sniff_graph_or_cnf(text: str) -> SimpleGraph | Cnf2:
    """DIMACS when the first line neither blank nor a `#` comment starts with c or p.

    parse_dimacs reads such a line as a comment or the problem line, and no
    edge-list line starts with either letter.
    """
    from .graph import parse_edgelist

    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line and not line.startswith("#")), "")
    return parse_dimacs(text) if first.startswith(("c", "p")) else parse_edgelist(text)


def _count_type(name: str):
    """The type of an option holding a count: ASCII digits, at least 0."""
    def read(text: str) -> int:
        try:
            count = _strict_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if count < 0:
            raise argparse.ArgumentTypeError(f"{name} must not be negative: {count}")
        return count
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satminors",
        description="Reduce 2-CNF sentences, analyze which graphs support "
        "unsatisfiable ones, and synthesize verified witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="rewrite a DIMACS sentence into simple form")
    p.add_argument("input", nargs="?", help="DIMACS file (default stdin)")

    p = sub.add_parser("solve", help="decide satisfiability of a DIMACS sentence")
    p.add_argument("input", nargs="?", help="DIMACS file (default stdin)")

    p = sub.add_parser("analyze", help="decide whether a graph supports an unsatisfiable sentence")
    p.add_argument("input", nargs="?", help="edge-list or DIMACS file (default stdin)")
    p.add_argument("--witness", nargs="?", const="-", metavar="PATH",
                   help="emit a witness sentence (to PATH, or stdout)")
    p.add_argument("--dot", metavar="PATH", help="write the graph as DOT, embedding highlighted")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("census", help="exhaustively classify all sentences a graph supports")
    p.add_argument("input", nargs="?", help="edge-list file (default stdin)")
    p.add_argument("--cap", type=_count_type("cap"), default=10, help="edge-count cap (default 10)")
    p.add_argument("--threads", type=_count_type("threads"), default=1,
                   help="accepted for compatibility; no effect, the census runs in-process")
    p.add_argument("--record", action="store_true", help="single-line machine-readable record")

    p = sub.add_parser("minor", help="search for one forbidden pattern in a host graph")
    p.add_argument("pattern", help="k4, book (k113), butterfly (v-config), bowtie (p-config)")
    p.add_argument("input", nargs="?", help="edge-list file (default stdin)")
    p.add_argument("--cap", type=_count_type("cap"), default=64,
                   help="host vertex cap (default 64)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fixture", help="emit a named fixture graph as edge-list text")
    p.add_argument("name", help="e.g. butterfly, bowtie, k4, book, cn:5, hills:3, config:pvv")

    return parser


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .simplify import SimplifyResult, to_simple

    outcome = to_simple(parse_dimacs(_read_input(args.input)))
    label = {
        SimplifyResult.UNSATISFIABLE: "UNSAT",
        SimplifyResult.TRIVIALLY_TRUE: "TRIVIALLY-TRUE",
        SimplifyResult.SIMPLE: "SIMPLE",
    }[outcome.result]
    print(label)
    print("trace:" + "".join(f" {step!r}" for step in outcome.trace))
    sys.stdout.write(cnf_to_dimacs(outcome.cnf))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    s = parse_dimacs(_read_input(args.input))
    result = solve(s)
    if result.satisfiable:
        _check(result.model is not None and check_model(s, result.model),
               "a satisfiable result carries no model that satisfies the sentence")
        print("SAT")
        lits = [v if result.model[v] else -v for v in sorted(result.model)]
        print("v " + " ".join(str(l) for l in lits + [0]))
        return EXIT_OK
    print("UNSAT")
    if result.conflict_var is not None:
        print(f"conflict variable: {result.conflict_var}")
    return EXIT_UNSAT


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .graph import support_graph, to_dot
    from .minors import decide_support, verify_embedding
    from .witness import synthesize_witness, witness_to_dimacs

    parsed = _sniff_graph_or_cnf(_read_input(args.input))
    report: dict = {"format_version": JSON_FORMAT_VERSION}
    if isinstance(parsed, Cnf2):
        from .simplify import SimplifyResult, to_simple

        outcome = to_simple(parsed)
        report["simplification"] = outcome.result.value
        if outcome.result is SimplifyResult.UNSATISFIABLE:
            report["verdict"] = "unsatisfiable-input"
            _emit_analyze(args, report, None)
            return EXIT_OK
        if outcome.result is SimplifyResult.TRIVIALLY_TRUE:
            report["verdict"] = "trivially-true-input"
            _emit_analyze(args, report, None)
            return EXIT_OK
        graph = support_graph(outcome.cnf)
    else:
        graph = parsed

    verdict = decide_support(graph)
    witness_text = None
    if verdict.supports_unsat:
        _check(verdict.pattern is not None and verdict.embedding is not None,
               "a positive verdict carries no embedding")
        _check(verify_embedding(graph, verdict.pattern, verdict.embedding),
               "the verdict's embedding fails verification")
        report["verdict"] = "supports-unsat"
        report["pattern"] = verdict.pattern.value
        report["embedding"] = _embedding_json(verdict.embedding)
        if args.witness is not None:
            witness = synthesize_witness(graph)
            _check(witness is not None, "a positive verdict has no witness")
            witness_text = witness_to_dimacs(witness)
    else:
        _check(verdict.reason is not None, "a negative verdict carries no reason")
        report["verdict"] = "only-satisfiable"
        report["reason"] = verdict.reason.value
        if args.witness is not None:
            report["witness_path"] = None
    if witness_text is not None:
        if args.witness == "-":
            report["witness_path"] = "-"
        else:
            with open(args.witness, "w", encoding="utf-8") as fh:
                fh.write(witness_text)
            report["witness_path"] = args.witness
    if args.dot:
        used = verdict.embedding.used_edges() if verdict.embedding else ()
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph, highlight_edges=used))
        report["dot_path"] = args.dot
    _emit_analyze(args, report, witness_text)
    return EXIT_OK


def _emit_analyze(args, report, witness_text) -> None:
    if args.json:
        import json

        print(json.dumps(report, sort_keys=True))
    else:
        if "simplification" in report:
            print(f"simplification: {report['simplification']}")
        if report["verdict"] == "supports-unsat":
            print(f"supports-unsat pattern={report['pattern']}")
            _print_embedding(report["embedding"])
        elif report["verdict"] == "only-satisfiable":
            print(f"only-satisfiable reason={report['reason']}")
        else:
            print(report["verdict"])
    if witness_text is not None and report.get("witness_path") == "-":
        sys.stdout.write(witness_text)


def _embedding_json(emb: Embedding) -> dict:
    return {
        "branch_map": {str(k): v for k, v in emb.branch_map.items()},
        "paths": {f"{u}-{v}": list(p) for (u, v), p in emb.paths.items()},
    }


def _print_embedding(embedding: dict) -> None:
    """Text form of an _embedding_json dict: branch lines, then path lines."""
    for key, val in embedding["branch_map"].items():
        print(f"  branch {key} -> {val}")
    for key, val in embedding["paths"].items():
        print(f"  path {key}: {'-'.join(map(str, val))}")


def _graph_hash(g: SimpleGraph) -> str:
    import hashlib  # only census --record needs it; it costs every start-up a few ms

    from .graph import edgelist_to_text

    return hashlib.sha256(edgelist_to_text(g).encode()).hexdigest()[:16]


def _decimal(*counts: int) -> list[str]:
    """The decimal text of each count, however many digits it has.

    Recent Pythons refuse by default to convert an int of more than 4300
    digits to text, and a census of E edges counts 4**E sentences, 4301
    digits at E = 7143; the limit is lifted for these conversions only.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return [str(count) for count in counts]
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return [str(count) for count in counts]
    finally:
        set_limit(old)


def _cmd_census(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    report = census(graph, cap=args.cap)
    total, sat, unsat = _decimal(report.total, report.sat_count, report.unsat_count)
    if args.record:
        print(f"{_graph_hash(graph)} {total} {sat} {unsat}")
    else:
        print(f"{total} total, {sat} sat, {unsat} unsat")
        if report.example_unsat is not None:
            sys.stdout.write(cnf_to_dimacs(report.example_unsat, comments=["first unsat example"]))
    return EXIT_OK


def _cmd_minor(args: argparse.Namespace) -> int:
    key = args.pattern.strip().lower()
    if key not in _PATTERN_ALIASES:
        raise _UsageError(f"unknown pattern {args.pattern!r}")
    from .minors import Pattern, find_topological_minor, verify_embedding

    pattern = Pattern[_PATTERN_ALIASES[key]]
    host = _read_graph(args.input)
    emb = find_topological_minor(host, pattern, cap=args.cap)
    _check(emb is None or verify_embedding(host, pattern, emb),
           "the embedding found fails verification")
    if args.json:
        import json

        payload: dict = {"format_version": JSON_FORMAT_VERSION, "pattern": pattern.value,
                         "found": emb is not None}
        if emb is not None:
            payload["embedding"] = _embedding_json(emb)
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if emb is None:
        print("NOT-FOUND")
        return EXIT_OK
    print(f"FOUND {pattern.value}")
    _print_embedding(_embedding_json(emb))
    return EXIT_OK


def _cmd_fixture(args: argparse.Namespace) -> int:
    from .fixtures import UnknownFixture, fixture_graph, fixture_names
    from .graph import edgelist_to_text

    try:
        graph = fixture_graph(args.name)
    except UnknownFixture as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("known fixtures: " + ", ".join(fixture_names()), file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(edgelist_to_text(graph, comments=[args.name]))
    return EXIT_OK


_HANDLERS = {
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "census": _cmd_census,
    "minor": _cmd_minor,
    "fixture": _cmd_fixture,
}


def _loaded(module: str, name: str) -> tuple[type, ...]:
    """The exception class `name` of a satminors submodule, if it is loaded.

    A module that was never imported cannot have raised its exception, so
    main maps it without importing the module.
    """
    loaded = sys.modules.get(f"{__package__}.{module}")
    return () if loaded is None else (getattr(loaded, name),)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (_UsageError, *_loaded("witness", "WitnessError")) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormulaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (TooManyEdges, *_loaded("minors", "HostTooLarge")) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    # internal checks raise AssertionError explicitly, never by assert, so
    # they also run under -O
    except (AssertionError, *_loaded("witness", "InternalVerificationFailed")) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
