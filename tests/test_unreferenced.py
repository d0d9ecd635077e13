"""Every definition in the package is used somewhere.

Lists the top-level functions, classes and UPPERCASE constants of
``src/toricfib/*.py`` and the non-dunder methods of its top-level classes,
and fails for any name that occurs as a Python name token nowhere in
``src/``, ``tests/`` or ``bench/`` outside its own definition and outside
``import`` statements (importing a name is not using it).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricfib"


def _definitions(path):
    """(name, first line, last line) of each checked definition in one module."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (m.name, m.lineno, m.end_lineno)
                for m in node.body
                if isinstance(m, ast.FunctionDef)
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (t.id, node.lineno, node.end_lineno)
                for t in targets
                if isinstance(t, ast.Name) and t.id.isupper()
            )
    return out


def _name_tokens(path):
    """(name, line) of every Python name token in one file, import lines excluded."""
    src = path.read_text()
    import_lines = {
        line
        for node in ast.walk(ast.parse(src))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return [
        (tok.string, tok.start[0])
        for tok in tokenize.generate_tokens(io.StringIO(src).readline)
        if tok.type == tokenize.NAME and tok.start[0] not in import_lines
    ]


def test_no_unreferenced_definitions():
    files = [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    tokens = {p: _name_tokens(p) for p in files}
    unreferenced = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(module):
            used = any(
                s == name and not (p == module and first <= line <= last)
                for p, toks in tokens.items()
                for s, line in toks
            )
            if not used:
                unreferenced.append(f"{module.name}:{first} {name}")
    assert not unreferenced, unreferenced
