"""JSON (de)serialization for polytopes and matrices.

Formats:
  polytope  {"rank": n, "vertices": [[...], ...]}
  matrix    [[...], ...]
"""

from __future__ import annotations

from .errors import ToricError
from .polytope import LatticePolytope


class ParseError(ToricError):
    code = "parse-error"


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def polytope_to_json(p):
    return {"rank": p.rank, "vertices": [list(v) for v in p.vertices]}


def polytope_from_json(data):
    _require(isinstance(data, dict), "polytope must be an object")
    _require("vertices" in data, "polytope needs 'vertices'")
    verts = data["vertices"]
    _require(
        isinstance(verts, list) and verts and all(isinstance(v, list) for v in verts),
        "'vertices' must be a non-empty list of integer lists",
    )
    rank = data.get("rank", len(verts[0]))
    _require(all(len(v) == rank for v in verts), "vertex length mismatch")
    return LatticePolytope.hull(verts)


def matrix_from_json(data):
    _require(
        isinstance(data, list) and data and all(isinstance(r, list) for r in data),
        "matrix must be a list of rows",
    )
    return tuple(tuple(int(x) for x in r) for r in data)


def matrix_to_json(m):
    return [list(r) for r in m]
