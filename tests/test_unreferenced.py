"""Every definition in the package is used by the package.

Lists the top-level functions, classes and UPPERCASE constants of
``src/toricfib/*.py`` and the non-dunder methods of its top-level classes.
A name counts as used when it occurs as a Python name token in ``src/`` or
``bench/`` outside every definition of that name (a token cannot tell which
of two same-named methods it reaches) and outside ``import`` statements
(importing a name is not using it).  Tests do not count: a name that only
tests use is test-only API, and it is listed in ``TEST_ONLY`` with its
reason.  A listed name must still be defined, must still be used by the
tests, and must not be used by the package.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricfib"

TEST_ONLY = {
    "adjugate": "reference for exactlinalg.scaled_inverse",
    "base_roots": "the base roots that track_roots' permutations index; tests "
    "check their scale-relative solve and their memo",
    "evaluate": "numeric spot checks of exact identities, as the 256-bit form "
    "of the pullback identity with sqrt(12)",
    "is_smooth": "smoothness of the model and test fans, for ROADMAP item 7's "
    "resolutions",
    "j_invariants": "ROADMAP item 2: fibre moduli derived from the equations",
    "normal_form_from_lambda": "ROADMAP item 2: fibre moduli derived from the "
    "equations",
    "pi_sigma": "ROADMAP item 2: fibre moduli derived from the equations",
}


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


def _used(name, spans, tokens):
    """Whether name occurs in tokens outside the (module, first, last) spans."""
    return any(
        s == name and not any(p == m and f <= line <= e for m, f, e in spans)
        for p, toks in tokens.items()
        for s, line in toks
    )


def test_no_unreferenced_definitions():
    def tokens_of(*dirs):
        return {p: _name_tokens(p) for d in dirs for p in (ROOT / d).rglob("*.py")}

    package_tokens = tokens_of("src", "bench")
    test_tokens = tokens_of("tests")
    spans = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(module):
            spans.setdefault(name, []).append((module, first, last))
    unreferenced = []
    for name, where in spans.items():
        if name in TEST_ONLY:
            if _used(name, where, package_tokens):
                unreferenced.append(f"{name} is used by the package; unlist it")
            elif not _used(name, where, test_tokens):
                unreferenced.append(f"{name} is used by no test either")
        elif not _used(name, where, package_tokens):
            unreferenced.extend(f"{m.name}:{f} {name}" for m, f, _ in where)
    unreferenced.extend(
        f"{name} is listed but not defined" for name in TEST_ONLY.keys() - spans.keys()
    )
    assert not unreferenced, unreferenced
