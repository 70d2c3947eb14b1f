import subprocess
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

MODULE = '''"""Module docstring."""

# a comment
class C:
    """Class docstring."""


def f():
    """Function
    docstring."""
    return """a string

whose lines are code"""
'''


def test_loc_counts_physical_and_code_lines(tmp_path):
    # code: class C, def f, and the three lines of the returned string
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    proc = subprocess.run([sys.executable, str(LOC), str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "  lines   code  module\n"
        f"     13      5  {path}\n"
        "     13      5  total\n"
    )
