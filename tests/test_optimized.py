"""Checks that hold when Python strips assert statements (python -O).

Each case runs in a fresh interpreter, with and without -O, and the two
runs must agree: invariants are raised as exceptions, not asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints one JSON object as the last line of stdout; argv[1] is a butterfly edge list.
PROBE = """
import json, sys
from satminors import minors, witness
from satminors.census import CensusReport
from satminors.cli import main
from satminors.fixtures import fixture_graph
from satminors.formula import Cnf2, CnfKind
from satminors.graph import SimpleGraph
from satminors.minors import Verdict, decide_support

out = {"optimize": sys.flags.optimize}
try:
    CensusReport(SimpleGraph.of([(1, 2)]), 4, 3, 0, None)
    out["census"] = "built"
except ValueError:
    out["census"] = "ValueError"

g = fixture_graph("butterfly")
try:
    decide_support(g).embedding.branch_map[1] = 99
    out["embedding"] = "changed"
except TypeError:
    out["embedding"] = "TypeError"
out["branch_map"] = decide_support(g).embedding.branch_map

out["constants"] = [Cnf2(CnfKind.TRUE, []) == Cnf2.true(),
                    hash(Cnf2(CnfKind.FALSE, [])) == hash(Cnf2.false())]

# minor verifies what it found; an embedding that fails the check exits 70
minors.verify_embedding = lambda host, pattern, emb: False
out["minor"] = main(["minor", "butterfly", sys.argv[1]])

# a positive verdict without an embedding is refused by analyze and the witness
minors.decide_support = witness.decide_support = lambda g, cap=64: Verdict(True)
out["analyze"] = main(["analyze", "--witness", "-", sys.argv[1]])
try:
    witness.synthesize_witness(g)
    out["witness"] = "built"
except witness.InternalVerificationFailed:
    out["witness"] = "InternalVerificationFailed"
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_checks_survive_stripped_asserts(tmp_path, flags):
    path = tmp_path / "butterfly.graph"
    path.write_text("1 2\n1 3\n2 3\n3 4\n3 5\n4 5\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, str(path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {
        "optimize": len(flags),
        "census": "ValueError",
        "embedding": "TypeError",
        "branch_map": {"3": 3, "1": 1, "2": 2, "4": 4, "5": 5},
        "constants": [True, True],
        "minor": 70,
        "analyze": 70,
        "witness": "InternalVerificationFailed",
    }
    assert proc.stderr.splitlines() == [
        "internal error: the embedding found fails verification",
        "internal error: a positive verdict carries no embedding",
    ]
