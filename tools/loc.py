"""Count the physical lines and the code lines of Python modules.

Physical lines are counted as `wc -l` counts them, one per newline.  A
code line is one that is not blank, not a comment alone and not inside a
module, class or function docstring; every line of any other string is
code.

    python3 tools/loc.py src/satminors          # every .py file below it
    python3 tools/loc.py src/satminors/graph.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """The physical lines and the code lines of a module's source."""
    tree = ast.parse(source)
    docs: set[int] = set()
    strings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
        elif isinstance(node, (ast.Constant, ast.JoinedStr)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    code = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if lineno not in docs and (lineno in strings or (text and not text.startswith("#"))):
            code += 1
    return source.count("\n"), code


def modules(paths: list[str]) -> list[Path]:
    """The .py files named, and those below the directories named, sorted."""
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/loc.py PATH...", file=sys.stderr)
        return 64
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>6}  module")
    for path in modules(argv):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:>7} {code:>6}  {path}")
    print(f"{total_lines:>7} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
