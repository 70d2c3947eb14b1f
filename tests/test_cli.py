import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from satminors import Cnf2, SimpleGraph, cnf_to_dimacs, decide_support, edgelist_to_text, fixture_graph, parse_dimacs, parse_edgelist, solve
from satminors import minors
from satminors.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_UNSAT, EXIT_USAGE, main
from satminors.fixtures import MAX_FIXTURE_ARG, UnknownFixture

S3_DIMACS = "p cnf 4 6\n1 2 0\n1 3 0\n-1 4 0\n-2 -3 0\n2 -4 0\n3 -4 0\n"

# The butterfly embedding in hills:3 as `analyze` and `minor butterfly` print
# it, byte for byte, recorded before the two commands shared one renderer.
HILLS3_EMBEDDING_TEXT = (
    "  branch 1 -> 1\n  branch 2 -> 2\n  branch 3 -> 3\n  branch 4 -> 4\n  branch 5 -> 5\n"
    "  path 1-2: 1-2\n  path 1-3: 1-3\n  path 2-3: 2-3\n"
    "  path 3-4: 3-4\n  path 3-5: 3-5\n  path 4-5: 4-5\n"
)
HILLS3_EMBEDDING_JSON = (
    '"embedding": {"branch_map": {"1": 1, "2": 2, "3": 3, "4": 4, "5": 5}, '
    '"paths": {"1-2": [1, 2], "1-3": [1, 3], "2-3": [2, 3], "3-4": [3, 4], '
    '"3-5": [3, 5], "4-5": [4, 5]}}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolveCommand:
    def test_sat_with_model_line(self, capsys, tmp_path):
        path = write(tmp_path, "s.cnf", "p cnf 1 1\n1 0\n")
        code, out, _ = run(capsys, "solve", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "SAT"
        assert out.splitlines()[1] == "v 1 0"

    def test_unsat_exit_code(self, capsys, tmp_path):
        path = write(tmp_path, "s3.cnf", S3_DIMACS)
        code, out, _ = run(capsys, "solve", path)
        assert code == EXIT_UNSAT
        assert out.splitlines()[0] == "UNSAT"
        assert "conflict variable:" in out

    def test_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "bad.cnf", "garbage\n")
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_PARSE
        assert "parse error" in err


class TestReduceCommand:
    def test_full_pair_unsat(self, capsys, tmp_path):
        path = write(tmp_path, "p.cnf", "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        code, out, _ = run(capsys, "reduce", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "UNSAT"

    def test_already_simple_round_trips(self, capsys, tmp_path):
        dimacs = "p cnf 3 2\n1 2 0\n-2 3 0\n"
        path = write(tmp_path, "simple.cnf", dimacs)
        code, out, _ = run(capsys, "reduce", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "SIMPLE"
        assert lines[1] == "trace:"
        assert "\n".join(lines[2:]) + "\n" == dimacs

    def test_unit_chain_trivially_true(self, capsys, tmp_path):
        path = write(tmp_path, "u.cnf", "p cnf 2 2\n1 0\n-1 2 0\n")
        code, out, _ = run(capsys, "reduce", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "TRIVIALLY-TRUE"
        assert lines[1] == "trace: 1:=T 2:=T"

    def test_emitted_dimacs_reparses_equal(self, capsys, tmp_path):
        original = Cnf2.from_ints([[1, 2], [-1, 3], [2, 3]])
        path = write(tmp_path, "r.cnf", cnf_to_dimacs(original))
        _, out, _ = run(capsys, "reduce", path)
        body = "\n".join(out.splitlines()[2:]) + "\n"
        assert parse_dimacs(body) == original


class TestAnalyzeCommand:
    def test_bowtie_fixture(self, capsys, tmp_path):
        path = write(tmp_path, "bowtie.graph", edgelist_to_text(fixture_graph("bowtie")))
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "supports-unsat pattern=bowtie"

    def test_k4_minus_e(self, capsys, tmp_path):
        path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("k4-e")))
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "only-satisfiable reason=theta-core"

    def test_hills(self, capsys, tmp_path):
        path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("hills:3")))
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        assert out.startswith("supports-unsat")

    def test_hills_output_pinned(self, capsys, tmp_path):
        path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("hills:3")))
        assert run(capsys, "analyze", path) == (
            EXIT_OK, "supports-unsat pattern=butterfly\n" + HILLS3_EMBEDDING_TEXT, ""
        )
        assert run(capsys, "analyze", path, "--json") == (
            EXIT_OK,
            "{" + HILLS3_EMBEDDING_JSON
            + ', "format_version": 1, "pattern": "butterfly", "verdict": "supports-unsat"}\n',
            "",
        )

    def test_witness_pipes_into_solve(self, capsys, tmp_path):
        graph_path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("bowtie")))
        witness_path = str(tmp_path / "w.cnf")
        code, out, _ = run(capsys, "analyze", graph_path, "--witness", witness_path)
        assert code == EXIT_OK
        code, out, _ = run(capsys, "solve", witness_path)
        assert code == EXIT_UNSAT

    def test_witness_to_stdout(self, capsys, tmp_path):
        graph_path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("butterfly")))
        code, out, _ = run(capsys, "analyze", graph_path, "--witness")
        assert code == EXIT_OK
        dimacs = out[out.index("c var") :]
        assert not solve(parse_dimacs(dimacs)).satisfiable

    def test_json_report_then_witness_on_stdout(self, capsys, tmp_path):
        graph_path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("butterfly")))
        code, out, _ = run(capsys, "analyze", graph_path, "--json", "--witness")
        assert code == EXIT_OK
        report_line, dimacs = out.split("\n", 1)
        assert json.loads(report_line)["witness_path"] == "-"
        assert not solve(parse_dimacs(dimacs)).satisfiable

    def test_witness_searches_once(self, capsys, tmp_path, monkeypatch):
        g = fixture_graph("hills:3")
        path = write(tmp_path, "g.graph", edgelist_to_text(g))
        searches = []
        search = minors.find_topological_minor

        def counted(*args, **kwargs):
            searches.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(minors, "find_topological_minor", counted)
        decide_support(g)
        once = list(searches)
        searches.clear()
        assert main(["analyze", "--witness", "-", path]) == EXIT_OK
        assert searches == once and once
        assert "c var" in capsys.readouterr().out

    def test_witness_with_isolated_vertex_is_a_usage_error(self, capsys, tmp_path):
        # K4 plus the isolated vertex 9: K4 embeds, but no clause can cover 9
        path = write(tmp_path, "g.graph", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\nv 9\n")
        assert run(capsys, "analyze", "--witness", "-", path) == (
            EXIT_USAGE, "", "usage error: isolated vertices [9] cannot support any clause\n"
        )

    def test_json_report(self, capsys, tmp_path):
        graph_path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("book")))
        code, out, _ = run(capsys, "analyze", graph_path, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["format_version"] == 1
        assert payload["verdict"] == "supports-unsat"
        assert payload["pattern"] == "book"
        assert "branch_map" in payload["embedding"]

    def test_json_negative(self, capsys, tmp_path):
        graph_path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("cn:5")))
        code, out, _ = run(capsys, "analyze", graph_path, "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "only-satisfiable"
        assert payload["reason"] == "unicyclic-components"

    def test_dimacs_input_simplifies_first(self, capsys, tmp_path):
        # multigraph sentence whose simple form is one clause
        path = write(tmp_path, "m.cnf", "p cnf 3 3\n1 2 0\n-1 -2 0\n2 3 0\n")
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "simplification: simple"
        assert "only-satisfiable reason=forest" in out

    def test_dimacs_unsat_short_circuits(self, capsys, tmp_path):
        path = write(tmp_path, "m.cnf", "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "unsatisfiable-input"

    def test_dot_output(self, capsys, tmp_path):
        graph_path = write(tmp_path, "g.graph", edgelist_to_text(fixture_graph("butterfly")))
        dot_path = tmp_path / "g.dot"
        code, _, _ = run(capsys, "analyze", graph_path, "--dot", str(dot_path))
        assert code == EXIT_OK
        text = dot_path.read_text()
        assert text.startswith("graph {")
        assert "[color=red]" in text


class TestCensusCommand:
    def test_triangle(self, capsys, tmp_path):
        path = write(tmp_path, "c3.graph", edgelist_to_text(fixture_graph("c3")))
        code, out, _ = run(capsys, "census", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "64 total, 64 sat, 0 unsat"

    def test_k4_record(self, capsys, tmp_path):
        path = write(tmp_path, "k4.graph", edgelist_to_text(fixture_graph("k4")))
        code, out, _ = run(capsys, "census", path, "--record")
        assert code == EXIT_OK
        fields = out.split()
        assert fields[1:] == ["4096", "4048", "48"]

    def test_cap_exit(self, capsys, tmp_path):
        path = write(tmp_path, "b.graph", edgelist_to_text(fixture_graph("butterfly")))
        code, _, err = run(capsys, "census", path, "--cap", "5")
        assert code == EXIT_CAP
        assert "resource cap" in err

    def test_negative_cap_is_a_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "b.graph", edgelist_to_text(fixture_graph("butterfly")))
        code, out, err = run(capsys, "census", path, "--cap", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error:") and "cap must not be negative: -1" in err


class TestMinorCommand:
    def test_found(self, capsys, tmp_path):
        path = write(tmp_path, "h.graph", edgelist_to_text(fixture_graph("hills:3")))
        code, out, _ = run(capsys, "minor", "butterfly", path)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "FOUND butterfly"

    def test_output_pinned(self, capsys, tmp_path):
        path = write(tmp_path, "h.graph", edgelist_to_text(fixture_graph("hills:3")))
        assert run(capsys, "minor", "butterfly", path) == (
            EXIT_OK, "FOUND butterfly\n" + HILLS3_EMBEDDING_TEXT, ""
        )
        assert run(capsys, "minor", "butterfly", path, "--json") == (
            EXIT_OK,
            "{" + HILLS3_EMBEDDING_JSON
            + ', "format_version": 1, "found": true, "pattern": "butterfly"}\n',
            "",
        )

    def test_host_cap_exit(self, capsys, tmp_path):
        path = write(tmp_path, "k4.graph", edgelist_to_text(fixture_graph("k4")))
        code, out, err = run(capsys, "minor", "k4", path, "--cap", "3")
        assert code == EXIT_CAP
        assert out == ""
        assert "resource cap" in err

    def test_negative_cap_is_a_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "k4.graph", edgelist_to_text(fixture_graph("k4")))
        code, out, err = run(capsys, "minor", "k4", path, "--cap", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error:") and "cap must not be negative: -1" in err

    def test_not_found(self, capsys, tmp_path):
        path = write(tmp_path, "h.graph", edgelist_to_text(fixture_graph("k4-e")))
        code, out, _ = run(capsys, "minor", "k4", path)
        assert code == EXIT_OK
        assert out.strip() == "NOT-FOUND"

    def test_alias_and_json(self, capsys, tmp_path):
        path = write(tmp_path, "h.graph", edgelist_to_text(fixture_graph("book")))
        code, out, _ = run(capsys, "minor", "k113", path, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pattern"] == "book" and payload["found"] is True

    def test_unknown_pattern(self, capsys, tmp_path):
        path = write(tmp_path, "h.graph", edgelist_to_text(fixture_graph("c3")))
        code, _, err = run(capsys, "minor", "pentagon", path)
        assert code == EXIT_USAGE

    def test_path_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # K4 with the edge (1, 2) subdivided by 1500 vertices
        chain = [1] + list(range(5, 1505)) + [2]
        edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)] + list(zip(chain, chain[1:]))
        path = write(tmp_path, "long.graph", edgelist_to_text(SimpleGraph.of(edges)))
        code, out, err = run(capsys, "minor", "k4", path, "--cap", "5000")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "FOUND k4"
        assert err == ""


class TestFixtureCommand:
    def test_butterfly_emission(self, capsys):
        code, out, _ = run(capsys, "fixture", "butterfly")
        assert code == EXIT_OK
        g = parse_edgelist(out)
        assert g == fixture_graph("butterfly")
        assert (len(g.vertices), len(g.edges)) == (5, 6)

    def test_book_counts(self, capsys):
        code, out, _ = run(capsys, "fixture", "book")
        g = parse_edgelist(out)
        assert (len(g.vertices), len(g.edges)) == (5, 7)

    def test_hills_two_is_butterfly(self, capsys):
        code, out, _ = run(capsys, "fixture", "hills:2")
        assert parse_edgelist(out) == fixture_graph("butterfly")

    def test_round_trip_isomorphic(self, capsys):
        for name in ["bowtie", "square-butterfly", "config:vvv1", "cn:6"]:
            code, out, _ = run(capsys, "fixture", name)
            assert code == EXIT_OK
            g = parse_edgelist(out)
            h = fixture_graph(name)
            a, b = nx.Graph(sorted(g.edges)), nx.Graph(sorted(h.edges))
            assert nx.is_isomorphic(a, b)

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "fixture", "dodecahedron")
        assert code == EXIT_USAGE
        assert "known fixtures" in err

    def test_parametric_families_are_bounded(self, capsys):
        assert len(fixture_graph(f"cn:{MAX_FIXTURE_ARG}").vertices) == MAX_FIXTURE_ARG
        assert len(fixture_graph(f"hills:{MAX_FIXTURE_ARG}").edges) == 3 * MAX_FIXTURE_ARG
        for family in ("cn", "hills"):
            name = f"{family}:{MAX_FIXTURE_ARG + 1}"
            with pytest.raises(UnknownFixture, match="exceeds"):
                fixture_graph(name)
            code, out, err = run(capsys, "fixture", name)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith(f"error: fixture argument in {name!r} exceeds {MAX_FIXTURE_ARG}\n")


class TestUsage:
    def test_missing_command(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/path.cnf")
        assert code == EXIT_USAGE


class TestFreshProcess:
    """`python -m satminors.cli` in a new interpreter matches in-process main.

    In-process runs have every module loaded already, so only a fresh
    process shows a handler missing an import, or an exception main cannot
    map to its exit code.
    """

    GRAPH = edgelist_to_text(fixture_graph("butterfly"))
    ISOLATED = "1 2\n1 3\n2 3\n3 4\n3 5\n4 5\nv 6\n"
    # (input text or None, argv with FILE where its path goes, exit code)
    CASES = [
        ("p cnf 2 2\n1 2 0\n-1 2 0\n", ["solve", "FILE"], EXIT_OK),
        (S3_DIMACS, ["solve", "FILE"], EXIT_UNSAT),
        (S3_DIMACS, ["reduce", "FILE"], EXIT_OK),
        (GRAPH, ["analyze", "FILE", "--witness", "-", "--json"], EXIT_OK),
        (S3_DIMACS, ["analyze", "FILE"], EXIT_OK),
        (GRAPH, ["census", "FILE"], EXIT_OK),
        (GRAPH, ["census", "FILE", "--cap", "2"], EXIT_CAP),
        (edgelist_to_text(fixture_graph("k4")), ["minor", "k4", "FILE", "--cap", "3"], EXIT_CAP),
        (None, ["fixture", "config:vvv2"], EXIT_OK),
        (None, ["fixture", "cn:100000000"], EXIT_USAGE),
        ("garbage\n", ["solve", "FILE"], EXIT_PARSE),
        (ISOLATED, ["analyze", "FILE", "--witness"], EXIT_USAGE),
    ]

    @pytest.mark.parametrize("text, argv, expected", CASES, ids=[" ".join(c[1]) for c in CASES])
    def test_matches_in_process_main(self, capsys, tmp_path, text, argv, expected):
        if text is not None:
            path = write(tmp_path, "input", text)
            argv = [path if arg == "FILE" else arg for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "satminors.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        assert proc.returncode == expected
