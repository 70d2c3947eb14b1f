"""The package namespace, and which modules each entry point loads.

The suite imports every module long before these tests run, so anything
about first access or about what an import loads is checked in a fresh
interpreter.  The checks compare module sets, not times.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import satminors

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the loaded satminors modules as the last line of stdout.
LOADED = "import json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('satminors'))))\n"


def fresh(code: str):
    """Run code in a new interpreter importing from src; the JSON its last line prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_by_main(*argv: str) -> set[str]:
    code = f"from satminors.cli import main\nmain({list(argv)!r})\n" + LOADED
    return {m.removeprefix("satminors.") for m in fresh(code)}


class TestImportFootprint:
    def test_import_loads_formula_sat_and_census_only(self):
        assert fresh("import satminors\n" + LOADED) == [
            "satminors", "satminors.census", "satminors.formula", "satminors.sat",
        ]

    def test_solve_loads_no_graph_layer(self, tmp_path):
        path = tmp_path / "s.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        loaded = loaded_by_main("solve", str(path))
        assert "cli" in loaded
        assert loaded.isdisjoint({"graph", "minors", "witness", "simplify", "fixtures"})

    def test_census_loads_no_decider_witness_or_simplifier(self, tmp_path):
        path = tmp_path / "b.graph"
        path.write_text("1 2\n1 3\n2 3\n3 4\n3 5\n4 5\n")
        loaded = loaded_by_main("census", str(path))
        assert "graph" in loaded
        assert loaded.isdisjoint({"minors", "witness", "simplify", "fixtures"})


class TestNamespace:
    def test_first_access_in_a_fresh_process(self):
        facts = fresh(
            "import importlib, json, sys\n"
            "import satminors\n"
            "bound = sorted(n for n in satminors.__all__ if n in vars(satminors))\n"
            "listed = set(dir(satminors)) >= set(satminors.__all__)\n"
            "first = satminors.decide_support\n"
            "resolved = first is sys.modules['satminors.minors'].decide_support\n"
            "cached = vars(satminors).get('decide_support') is first\n"
            "importlib.import_module('satminors.census')\n"
            "import satminors.census\n"
            "kind = type(satminors.census).__name__\n"
            "print(json.dumps([bound, listed, resolved, cached, kind]))\n"
        )
        # formula and sat are bound as the submodules that census and solve load
        assert facts == [["census", "formula", "sat", "solve"], True, True, True, "function"]

    def test_star_import_binds_every_name(self):
        missing = fresh(
            "import json\n"
            "from satminors import *\n"
            "import satminors\n"
            "print(json.dumps([n for n in satminors.__all__ if n not in globals()]))\n"
        )
        assert missing == []

    def test_every_public_name_is_its_home_modules_object(self):
        for name in satminors.__all__:
            value = getattr(satminors, name)
            if isinstance(value, types.ModuleType):
                assert name != "census"
                assert value is sys.modules[f"satminors.{name}"], name
                continue
            home = sys.modules.get(getattr(value, "__module__", ""))
            if home is None or not home.__name__.startswith("satminors."):
                # a type alias such as Edge reports its origin's module
                home = next(m for k, m in sys.modules.items()
                            if k.startswith("satminors.") and vars(m).get(name) is value)
            assert getattr(home, name) is value, name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            satminors.no_such_name
        assert not hasattr(satminors, "_no_such_private")
