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


def _int_rows(rows):
    """True for a non-empty list of non-empty lists of ints; bools and floats
    fail."""
    return (
        isinstance(rows, list)
        and bool(rows)
        and all(isinstance(r, list) and r and all(type(x) is int for x in r) for r in rows)
    )


def polytope_to_json(p):
    return {"rank": p.rank, "vertices": [list(v) for v in p.vertices]}


def polytope_from_json(data):
    _require(isinstance(data, dict), "polytope must be an object")
    _require("vertices" in data, "polytope needs 'vertices'")
    verts = data["vertices"]
    _require(_int_rows(verts), "'vertices' must be a non-empty list of integer lists")
    rank = data.get("rank", len(verts[0]))
    _require(type(rank) is int, "'rank' must be an integer")
    _require(all(len(v) == rank for v in verts), "vertex length mismatch")
    return LatticePolytope.hull(verts)


def matrix_from_json(data):
    _require(_int_rows(data), "matrix must be a non-empty list of integer lists")
    return tuple(tuple(r) for r in data)


def matrix_to_json(m):
    return [list(r) for r in m]
