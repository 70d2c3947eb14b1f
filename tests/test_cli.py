import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import ladder, random_subdivision, sparse_graph_stream
from satminors import Cnf2, SimpleGraph, cnf_to_dimacs, decide_support, edgelist_to_text, fixture_graph, parse_dimacs, parse_edgelist, solve
from satminors import minors
from satminors.cli import EXIT_CAP, EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_UNSAT, EXIT_USAGE, main
from satminors.fixtures import MAX_FIXTURE_ARG, UnknownFixture
from satminors.formula import ParseError
from satminors.graph import MAX_VERTEX_COUNT

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


def run_limited(argv, timeout, stdin=None):
    """The CLI in a fresh process with 1 GiB of address space."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def limit_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "satminors.cli", *argv], input=stdin, capture_output=True,
                          text=True, env=env, timeout=timeout, preexec_fn=limit_memory)


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


    @pytest.mark.parametrize("command, text", [
        ("solve", "p cnf 20 1\n1_0 2 0\n"), ("reduce", "p cnf 3 1\n\u0663 2 0\n"),
        ("solve", "p cnf 2_0 1\n1 2 0\n"), ("analyze", "1_0 2\n"), ("analyze", "n 1_0\n"),
    ])
    def test_underscores_and_other_digits_are_parse_errors(self, capsys, tmp_path, command, text):
        path = write(tmp_path, "lenient.txt", text)
        code, out, err = run(capsys, command, path)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("parse error: line ") and "Traceback" not in err


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

    def test_mixed_body_pinned(self, capsys, tmp_path):
        # a clause fan whose last variable is relabelled as it collapses, units,
        # a folded clause, a clause split across lines and a tautology
        fan = [f"{i} -{i + 1} 0" for i in range(1, 16)] + [f"-{i} 16 0" for i in range(1, 16)]
        lines = ["c a fan on 1..16", "p cnf 23 39"]
        lines += [" ".join(fan[k:k + 5]) for k in range(0, 30, 5)]
        lines += ["c a tail on 17..23", "17 17 0 -17 18 -17 0 -17",
                  "19 0 18 20 0 20 21 0 18 21 0 5 -5 0", "19 -20 0 -19 20 0 18 20 0",
                  "1 22 0 22 -23 0 -16 23 0"]
        path = write(tmp_path, "mixed.cnf", "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "reduce", path)
        assert code == EXIT_OK
        assert out == (
            "SIMPLE\n"
            "trace: 17:=T 18:=T 19:=T 20:=T 16:=15 15:=14 14:=13 13:=12 12:=11 11:=10 10:=9 9:=8"
            " 8:=7 7:=6 6:=5 5:=4 4:=3 3:=2 2:=1\n"
            "p cnf 23 3\n1 22 0\n-1 23 0\n22 -23 0\n"
        )

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

    @pytest.mark.parametrize("head", ["c\tnote\np cnf 3 2", "cnote\np cnf 3 2", "p\tcnf 3 2"])
    def test_dimacs_by_its_first_letter(self, capsys, tmp_path, head):
        # parse_dimacs takes any line starting with c as a comment and splits
        # the problem line on any whitespace; analyze reads what solve reads
        body = "\n1 2 0\n-2 3 0\n"
        plain = run(capsys, "analyze", write(tmp_path, "plain.cnf", "p cnf 3 2" + body))
        assert plain[:2] == (EXIT_OK, "simplification: simple\nonly-satisfiable reason=forest\n")
        assert run(capsys, "analyze", write(tmp_path, "s.cnf", head + body)) == plain

    def test_first_letter_c_without_a_problem_line_is_a_dimacs_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", write(tmp_path, "g.graph", "cat\n1 2\n"))
        assert (code, out, err) == (EXIT_PARSE, "", "parse error: line 2: clause appears before the problem line\n")

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

    @pytest.mark.parametrize("cap", ["1_0", "\u0663"])
    def test_underscores_and_other_digits_in_the_cap_are_usage_errors(self, capsys, tmp_path, cap):
        # int() reads both; the cap follows the parsers' strict-token rule
        path = write(tmp_path, "b.graph", edgelist_to_text(fixture_graph("butterfly")))
        code, out, err = run(capsys, "census", path, "--cap", cap)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error:") and f"invalid int value: {cap!r}" in err

    @pytest.mark.parametrize("threads, message", [
        ("1_0", "invalid int value: '1_0'"), ("٣", "invalid int value: '٣'"),
        ("３", "invalid int value: '３'"), ("-1", "threads must not be negative: -1"),
    ])
    def test_threads_follow_the_caps_rule(self, capsys, tmp_path, threads, message):
        # --threads has no effect, but it is read as strictly as --cap
        path = write(tmp_path, "e.graph", "1 2\n")
        code, out, err = run(capsys, "census", path, "--threads", threads)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error:") and message in err

    def test_threads_accepts_plain_counts(self, capsys, tmp_path):
        path = write(tmp_path, "e.graph", "1 2\n")
        for threads in ("0", "1", "8"):
            assert run(capsys, "census", path, "--threads", threads)[:2] == (
                EXIT_OK, "4 total, 4 sat, 0 unsat\n")

    def test_wide_ladder_within_a_memory_and_time_budget(self, capsys, tmp_path):
        # ladder(100) has 298 edges and a sorted order 101 slots wide; the
        # census answers it in a fresh process with 1 GiB of address space
        path = write(tmp_path, "ladder.graph", edgelist_to_text(ladder(100)))
        argv = ["census", "--cap", "300", path]
        proc = run_limited(argv, timeout=30)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout == run(capsys, *argv)[1]

    @pytest.mark.parametrize("record", [False, True], ids=["text", "record"])
    def test_counts_past_the_int_to_text_digit_limit(self, tmp_path, record):
        # a path of 7143 edges supports 4**7143 sentences, 4301 digits, one
        # past Python's default limit on converting an int to text; a path
        # is a forest, so the census takes no DP and only printing counts
        edges = 7143
        path = write(tmp_path, "path.graph",
                     edgelist_to_text(SimpleGraph.of([(i, i + 1) for i in range(1, edges + 1)])))
        argv = ["census", "--cap", "100000", path] + ["--record"] * record
        proc = run_limited(argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is not None:
            old = sys.get_int_max_str_digits()
            set_limit(0)
        try:
            count = str(4 ** edges)
        finally:
            if set_limit is not None:
                set_limit(old)
        assert len(count) == 4301
        if record:
            assert proc.stdout.split()[1:] == [count, count, "0"]
        else:
            assert proc.stdout == f"{count} total, {count} sat, 0 unsat\n"


class TestVertexCountLimit:
    """An `n <count>` line above MAX_VERTEX_COUNT is refused before any vertex is built."""

    @pytest.mark.parametrize("command", ["analyze", "census"])
    def test_huge_count_is_a_parse_error_within_a_memory_and_time_budget(self, command):
        proc = run_limited([command], timeout=2, stdin="n 100000000\n")
        assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
        assert proc.stderr == f"parse error: line 1: vertex count 100000000 exceeds {MAX_VERTEX_COUNT}\n"

    def test_count_at_the_limit_is_read_within_a_memory_and_time_budget(self):
        # 1000 lines at the limit build the vertex range once, not 1000 times
        proc = run_limited(["analyze"], timeout=20, stdin=f"n {MAX_VERTEX_COUNT}\n" * 1000)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "only-satisfiable reason=forest\n", "")


class TestReadOffsAboveTheCap:
    """A figure-eight, K4 or book core is read off its chains at any size:
    the 64-vertex cap guards only the search, which a read-off never runs."""

    HOSTS = {
        # two 50000-cycles through vertex 1: the paths 1..50000 and
        # 50001..99999, closed at 1
        "figure-eight": lambda: SimpleGraph.of(
            [(i, i + 1) for i in range(1, 99999) if i != 50000] + [(1, 50000), (1, 50001), (1, 99999)]),
        "subdivided-k4": lambda: random_subdivision(random.Random(1), sorted(fixture_graph("k4").edges), 100000),
    }

    @pytest.mark.parametrize("name", HOSTS)
    @pytest.mark.parametrize("witness", [False, True], ids=["text", "witness-json"])
    def test_answered_within_a_memory_and_time_budget(self, tmp_path, name, witness):
        path = write(tmp_path, "host.graph", edgelist_to_text(self.HOSTS[name]()))
        argv = ["analyze", path] + ["--witness", "-", "--json"] * witness
        proc = run_limited(argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        pattern = "butterfly" if name == "figure-eight" else "k4"
        if witness:
            report = json.loads(proc.stdout.splitlines()[0])
            assert (report["verdict"], report["pattern"]) == ("supports-unsat", pattern)
        else:
            assert proc.stdout.splitlines()[0] == f"supports-unsat pattern={pattern}"


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

    @pytest.mark.parametrize("k, answer", [(183, "NOT-FOUND"), (298, "FOUND butterfly")])
    def test_sparse_host_within_a_memory_and_time_budget(self, capsys, tmp_path, k, answer):
        # trees on 30 vertices with 4 chords, where the butterfly search once
        # took seconds trying tree vertices as branch images; it now takes its
        # candidates from the 2-core alone
        path = write(tmp_path, "sparse.graph", edgelist_to_text(sparse_graph_stream(k + 1)[k]))
        argv = ["minor", "butterfly", path]
        proc = run_limited(argv, timeout=2)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.splitlines()[0] == answer
        assert proc.stdout == run(capsys, *argv)[1]


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

    @pytest.mark.parametrize("name", ["hills:1_0", "cn:\u0663", "hills:\uff13"])
    def test_underscores_and_other_digits_are_unknown(self, capsys, name):
        # int() reads them; a fixture argument follows the parsers' strict-token rule
        with pytest.raises(UnknownFixture, match="bad fixture argument"):
            fixture_graph(name)
        code, out, err = run(capsys, "fixture", name)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: bad fixture argument in {name!r}\n")


class TestUsage:
    def test_missing_command(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/path.cnf")
        assert code == EXIT_USAGE


class TestInternalChecks:
    """A failed internal check of the library exits 70 with one line, no traceback."""

    K4_TEXT = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"

    def assert_internal_error(self, code, out, err):
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_decider_naming_a_pattern_that_does_not_embed(self, capsys, tmp_path, monkeypatch):
        # the prism is cubic of cycle rank 4, so the block pass names its
        # pattern, and the butterfly's degree-4 vertex has no image
        monkeypatch.setattr(minors, "_rank_three_pattern", lambda comp: minors.Pattern.BUTTERFLY)
        path = write(tmp_path, "prism.graph", "1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n1 4\n2 5\n3 6\n")
        self.assert_internal_error(*run(capsys, "analyze", path))

    # a figure-eight of two 5-cycles and K4 with one edge subdivided twice,
    # whose embeddings are read off the core's chains, paths and all
    FIGURE_EIGHT = "1 2\n2 3\n3 4\n4 5\n1 5\n1 6\n6 7\n7 8\n8 9\n1 9\n"
    SUBDIVIDED_K4 = "1 2\n1 3\n1 5\n2 3\n2 4\n3 4\n4 6\n5 6\n"

    @pytest.mark.parametrize("text, argv", [
        (FIGURE_EIGHT, ["analyze", "FILE", "--witness", "-"]),
        (SUBDIVIDED_K4, ["analyze", "FILE", "--witness", "-"]),
        (FIGURE_EIGHT, ["analyze", "FILE"]),
        (SUBDIVIDED_K4, ["analyze", "FILE", "--json"]),
        (SUBDIVIDED_K4, ["minor", "k4", "FILE", "--json"]),
    ], ids=["figure-eight", "k4", "analyze-figure-eight", "analyze-json-k4", "minor-json-k4"])
    def test_read_off_path_that_skips_a_vertex(self, capsys, tmp_path, monkeypatch, text, argv):
        # every print path verifies the embedding first and finds the step
        # that is no edge
        def skip_a_vertex(paths):
            e = next(e for e, p in paths.items() if len(p) > 2)
            return {**paths, e: paths[e][:1] + paths[e][2:]}

        core_branch, search = minors._core_branch, minors.find_topological_minor

        def damaged_read_off(hubs, chains, degree):
            pattern, branch, paths = core_branch(hubs, chains, degree)
            return pattern, branch, skip_a_vertex(paths)

        def damaged_search(host, pattern, cap=64):
            emb = search(host, pattern, cap)
            return minors.Embedding(emb.branch_map, skip_a_vertex(emb.paths))

        monkeypatch.setattr(minors, "_core_branch", damaged_read_off)
        monkeypatch.setattr(minors, "find_topological_minor", damaged_search)
        path = write(tmp_path, "core.graph", text)
        self.assert_internal_error(*run(capsys, *(path if arg == "FILE" else arg for arg in argv)))

    def test_solver_model_that_fails_the_sentence(self, capsys, tmp_path, monkeypatch):
        # (1 or 2) and (-1 or 2) holds only with 2 true
        wrong = mock.Mock(satisfiable=True, model={1: True, 2: False})
        monkeypatch.setattr(sys.modules["satminors.cli"], "solve", lambda s: wrong)
        path = write(tmp_path, "s.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
        self.assert_internal_error(*run(capsys, "solve", path))

    def test_census_example_the_solver_calls_satisfiable(self, capsys, tmp_path, monkeypatch):
        # the package attribute satminors.census is the function, not the module
        module = sys.modules["satminors.census"]
        monkeypatch.setattr(module, "solve", lambda s: mock.Mock(satisfiable=True))
        path = write(tmp_path, "k4.graph", self.K4_TEXT)
        self.assert_internal_error(*run(capsys, "census", path))


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


class TestNonUtf8Input:
    """Input that is not UTF-8 is a parse error (65) for every reading command."""

    DIMACS = b"p cnf 2 1\n1 2 0\n\xff\n"
    GRAPH = b"1 2\n\xff\n"
    CASES = [
        (DIMACS, ["solve"]),
        (DIMACS, ["reduce"]),
        (DIMACS, ["analyze"]),
        (GRAPH, ["analyze"]),
        (GRAPH, ["census"]),
        (GRAPH, ["minor", "k4"]),
    ]

    @pytest.mark.parametrize("via", ["file", "stdin"])
    @pytest.mark.parametrize("data, argv", CASES, ids=[" ".join(c[1]) for c in CASES])
    def test_fresh_process_exits_65_without_traceback(self, tmp_path, data, argv, via):
        stdin = data
        if via == "file":
            path = tmp_path / "input"
            path.write_bytes(data)
            argv, stdin = [*argv, str(path)], None
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "satminors.cli", *argv], input=stdin,
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"parse error: line 0: input is not valid UTF-8: ")
        assert proc.stderr.count(b"\n") == 1

    def test_message_matches_parse_dimacs_on_bytes(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_bytes(self.DIMACS)
        with pytest.raises(ParseError) as exc:
            parse_dimacs(self.DIMACS)
        assert run(capsys, "solve", str(path)) == (EXIT_PARSE, "", f"parse error: {exc.value}\n")

    def test_text_stdin_is_read_as_text(self, capsys, monkeypatch):
        # an io.StringIO stdin has no byte buffer to decode
        monkeypatch.setattr(sys, "stdin", io.StringIO(S3_DIMACS))
        code, out, _ = run(capsys, "solve")
        assert code == EXIT_UNSAT and out.startswith("UNSAT\n")


class TestClosedStdin:
    """With file descriptor 0 closed, reading stdin is a usage error (64)."""

    @pytest.mark.parametrize("argv", [
        ["solve"], ["solve", "-"], ["reduce"], ["analyze"], ["analyze", "--witness", "-"],
        ["census"], ["minor", "k4"],
    ], ids=" ".join)
    def test_fresh_process_exits_64_without_traceback(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "satminors.cli", *argv], capture_output=True,
                              env=env, timeout=120, preexec_fn=lambda: os.close(0))
        # one line on stderr, so no traceback
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_USAGE, b"", b"usage error: stdin is closed; name an input file\n")

    def test_in_process_main_without_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run(capsys, "solve") == (EXIT_USAGE, "", "usage error: stdin is closed; name an input file\n")


# three kinds of stdin text: tokens of both input formats mixed freely, and
# DIMACS and edge-list lines, a quarter of them with one token that does not belong
_JUNK = st.sampled_from(["p", "cnf", "c", "n", "v", "#", "-", "x", "1.5", "p cnf 3 1", "",
                         "0", "-3", "99", "0 0", "2 2", "1 2 3 0", "n 9", "v 12", "n -1", "# 1 2"])
_LITERAL = st.integers(min_value=1, max_value=7).flatmap(lambda v: st.sampled_from([str(v), str(-v)]))
_ID = st.integers(min_value=0, max_value=9).map(str)
_TOKEN_SOUP = st.lists(
    st.tuples(_LITERAL | _ID | _JUNK, st.sampled_from([" ", "\n", "\t", "\r\n"])), max_size=40
).map(lambda parts: "".join(token + sep for token, sep in parts))


def _with_junk(lines):
    def insert(parts):
        lines, junk, at = parts
        return "\n".join(lines if junk is None else lines[:at] + [junk] + lines[at:]) + "\n"

    junk = st.none() | st.none() | st.none() | _JUNK
    return st.tuples(lines, junk, st.integers(min_value=0, max_value=20)).map(insert)


_DIMACS_TEXT = st.tuples(
    st.sampled_from(["p cnf 7 0", "p cnf 7 9", "p cnf 4 1"]),
    st.lists(st.lists(_LITERAL, min_size=1, max_size=3).map(lambda lits: " ".join(lits) + " 0"),
             max_size=14),
).map(lambda parts: [parts[0], *parts[1]])
_EDGE = st.sampled_from([f"{u} {v}" for u in range(1, 9) for v in range(1, 9) if u != v])
_EDGE_TEXT = st.lists(_EDGE, min_size=5, max_size=18)
FUZZ_TEXT = _TOKEN_SOUP | _with_junk(_DIMACS_TEXT) | _with_junk(_EDGE_TEXT)
DOCUMENTED_EXITS = {EXIT_OK, EXIT_UNSAT, EXIT_USAGE, EXIT_PARSE, EXIT_CAP}


class TestFuzzExitCodes:
    """Random tokens on stdin: every command exits with a documented code, no traceback.

    Seeded (derandomized), so every run tries the same inputs.
    """

    @pytest.mark.parametrize("argv", [
        ["solve"], ["reduce"], ["analyze", "--witness", "-", "--json"], ["census"],
        ["minor", "k4"], ["minor", "bowtie"],
    ], ids=" ".join)
    def test_documented_exit_codes(self, argv):
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(FUZZ_TEXT)
        def check(text):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                    redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in DOCUMENTED_EXITS, (text, code, err.getvalue())
            assert "Traceback" not in err.getvalue()

        check()
