"""Statements of src/dpfedsim that a pytest run never executes.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

Runs pytest in this process under sys.settrace and threading.settrace,
recording the line events of code under src/dpfedsim only.  It then parses
each module with ast and lists, per module, the line of every statement no
line event reached, and exits with pytest's exit code.  Defs, imports,
docstrings and global statements emit no line event of their own and are
not listed; a statement counts as run when any line of its head (a whole
simple statement, or a compound statement's lines above its body) ran.

Only this process and its threads are traced.  Forked children and
subprocesses are not: the demos, the benchmark's child processes and the
helper lane's fork test run untraced, so what only they execute is listed.
Uses the standard library alone; nothing in src/ or tests/ imports it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpfedsim"
# statements that emit no line event of their own
_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
_SILENT += (ast.Global, ast.Nonlocal)


def _docstring(node: ast.AST) -> ast.stmt | None:
    if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    first = node.body[0] if node.body else None
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
        return first if isinstance(first.value.value, str) else None
    return None


def statements(tree: ast.Module) -> dict[int, range]:
    """First line -> the lines whose line event shows the statement ran."""
    heads: dict[int, range] = {}
    docstrings = {id(_docstring(node)) for node in ast.walk(tree)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SILENT) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        heads[node.lineno] = range(node.lineno, last + 1)
    return heads


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        heads = statements(ast.parse(path.read_text(), str(path)))
        lines = [first for first, head in sorted(heads.items()) if ran.isdisjoint(head)]
        if lines:
            print(f"{path.name}: {' '.join(map(str, lines))}")
        missed += len(lines)
    print(f"{missed} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
