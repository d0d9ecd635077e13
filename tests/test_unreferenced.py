"""Every definition in the package is used by the package.

Lists the top-level functions, classes and UPPERCASE constants of
``src/toricfib/*.py`` and the non-dunder methods of its top-level classes.
A use is read off the syntax tree of a file in ``src/`` or ``bench/``, and
only counts outside every definition of the same name:

- a top-level name of module ``m`` is used by a Name in ``m`` itself or in
  a file that imports it from ``m``, or by the attribute ``m.name`` where
  the file imports ``m`` as a module (a local variable of the same name in
  another module does not vouch for it);
- a method is used by an attribute ``.name`` (an attribute cannot tell which
  of two same-named methods it reaches).

Tests do not count: a name that only tests use is test-only API, and it is
listed in ``TEST_ONLY`` with its reason.  A listed name must still be
defined, must still be used by the tests, and must not be used by the
package.

The model geometry is public in ``models``, so no file in ``src/`` or
``tests/`` but ``acceptance.py`` itself reads a private ``acceptance._*``
name, through an attribute of the module or a from-import.  ``bench/`` is
exempt while it reads ``acceptance._Ctx`` (ROADMAP item 20).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricfib"

TEST_ONLY = {
    "_smallest_containing_cone": "the certificate rule of FanMorphism.cert "
    "on arbitrary vectors, checked against a scan of every cone of a fan",
    "adjugate": "reference for exactlinalg.scaled_inverse",
    "base_roots": "the base roots that track_roots' permutations index; tests "
    "check their scale-relative solve and their memo",
    "dual": "the nef-partition duality is an involution; a check of "
    "make_nef_partition on the model partition",
    "evaluate": "numeric spot checks of exact identities, as the 256-bit form "
    "of the pullback identity with sqrt(12)",
    "is_smooth": "smoothness of the model and test fans, for ROADMAP item 7's "
    "resolutions",
    "j_invariants": "ROADMAP item 2: fibre moduli derived from the equations",
    "normal_form_from_lambda": "ROADMAP item 2: fibre moduli derived from the "
    "equations",
    "pi_sigma": "ROADMAP item 2: fibre moduli derived from the equations",
    "points": "the five singular base values of SingularFibreLocus, for "
    "ROADMAP item 8's singular locus",
}


def _definitions(path):
    """(name, kind, first line, last line) of each checked definition in one
    module; kind is "top" or "method"."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, "top", node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (m.name, "method", m.lineno, m.end_lineno)
                for m in node.body
                if isinstance(m, ast.FunctionDef)
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (t.id, "top", node.lineno, node.end_lineno)
                for t in targets
                if isinstance(t, ast.Name) and t.id.isupper()
            )
    return out


def _package_module(node):
    """The package module a from-import reads from ("" for the package
    itself), or None when it reads from elsewhere."""
    if node.level:
        return node.module or ""
    if node.module == "toricfib":
        return ""
    if node.module and node.module.startswith("toricfib."):
        return node.module.removeprefix("toricfib.")
    return None


def _uses(path):
    """The uses in one file: (("top", module, name) or ("method", name), line)."""
    tree = ast.parse(path.read_text())
    imported = {}  # local name -> (module, name) imported from a package module
    modules = {}  # local name -> package module imported as a module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        src = _package_module(node)
        if src is None:
            continue
        for a in node.names:
            if src:
                imported[a.asname or a.name] = (src, a.name)
            else:
                modules[a.asname or a.name] = a.name
    own = path.stem if path.parent == PACKAGE else None
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in imported:
                out.append((("top",) + imported[node.id], node.lineno))
            elif own is not None:
                out.append((("top", own, node.id), node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((("method", node.attr), node.lineno))
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                out.append((("top", modules[value.id], node.attr), node.lineno))
    return out


def _used(key, name, spans, uses):
    """Whether key occurs in uses outside the (file, first, last) spans of name."""
    return any(
        not any(p == m and f <= line <= e for m, f, e in spans[name])
        for p, line in uses.get(key, ())
    )


def test_no_unreferenced_definitions():
    def uses_of(*dirs):
        """key -> (file, line) of each use in the files under dirs."""
        out = {}
        for d in dirs:
            for p in (ROOT / d).rglob("*.py"):
                for key, line in _uses(p):
                    out.setdefault(key, []).append((p, line))
        return out

    package_uses, test_uses = uses_of("src", "bench"), uses_of("tests")
    definitions, spans = {}, {}
    for module in sorted(PACKAGE.glob("*.py")):
        for name, kind, first, last in _definitions(module):
            key = ("top", module.stem, name) if kind == "top" else ("method", name)
            definitions.setdefault(name, []).append((key, module, first))
            spans.setdefault(name, []).append((module, first, last))
    unreferenced = []
    for name, defs in definitions.items():
        if name in TEST_ONLY:
            if any(_used(k, name, spans, package_uses) for k, _, _ in defs):
                unreferenced.append(f"{name} is used by the package; unlist it")
            elif not any(_used(k, name, spans, test_uses) for k, _, _ in defs):
                unreferenced.append(f"{name} is used by no test either")
        else:
            unreferenced.extend(
                f"{m.name}:{f} {name}"
                for k, m, f in defs
                if not _used(k, name, spans, package_uses)
            )
    unreferenced.extend(
        f"{name} is listed but not defined"
        for name in TEST_ONLY.keys() - definitions.keys()
    )
    assert not unreferenced, unreferenced


def _private_acceptance_uses(source):
    """(line, name) of each private name of ``acceptance`` that a source
    reads, through an attribute of the module or a from-import."""
    tree = ast.parse(source)
    bound = set()  # expressions that name the acceptance module here
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = _package_module(node)
            if src == "acceptance":
                out.extend((node.lineno, a.name) for a in node.names)
            elif src == "":
                bound.update(a.asname or a.name for a in node.names if a.name == "acceptance")
        elif isinstance(node, ast.Import):
            bound.update(
                a.asname or a.name for a in node.names if a.name == "toricfib.acceptance"
            )
    out.extend(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound
    )
    return sorted(
        (line, name)
        for line, name in out
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    )


def test_private_acceptance_names_stay_in_acceptance():
    for source, want in (
        ("from toricfib import acceptance\nacceptance._Ctx(acceptance.Fixtures())", [(2, "_Ctx")]),
        ("from toricfib.acceptance import run, _check as c", [(1, "_check")]),
        ("from .acceptance import _check", [(1, "_check")]),
        ("from . import acceptance as a\na._check", [(2, "_check")]),
        ("import toricfib.acceptance as a\na._x; a.__name__", [(2, "_x")]),
        ("import toricfib.acceptance\ntoricfib.acceptance._x", [(2, "_x")]),
        ("from toricfib import models\nmodels._x; acceptance._x", []),
    ):
        assert _private_acceptance_uses(source) == want, source
    found = [
        f"{p.relative_to(ROOT)}:{line} acceptance.{name}"
        for d in ("src", "tests")
        for p in sorted((ROOT / d).rglob("*.py"))
        if p != PACKAGE / "acceptance.py"
        for line, name in _private_acceptance_uses(p.read_text())
    ]
    assert not found, found
