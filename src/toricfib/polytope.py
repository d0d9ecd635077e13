"""Lattice polytopes with exact facet data, face lattices and point enumeration.

A LatticePolytope is immutable: vertices in canonical (lexicographic) order
and primitive facet inequalities ``<u, normal> >= -offset``.  Polar duality,
the face lattice with its inclusion-reversing correspondence, lattice point
enumeration and the boundary skeleton graph all live here.  Derived data is
computed once per polytope.  The vertex-facet incidence is the one format of
the exact core, a bitmask per facet: ``_facet_vertices`` has bit i set when
vertex i lies on the facet.  The faces come from it through
``dd.face_closure``, and the face and normal fans read it too.  ``hull``
runs ``dd.double_description`` on the homogenized points, which also decides
that they span, and reads everything else straight from its masks, one per
facet with bit i for point i: the facets are the rays, and the vertices come
from ``dd.extreme_generators``, one AND of masks per point.

Lattice points come from one int64 array test over the bounding box: for each
value of the leading coordinates, every facet functional is evaluated on the
rest of the box at once, in blocks of bounded size.  Points are listed in
lexicographic order, and each one's tight facets come from one more product of
the points with the normals.  The test is exact: DegenerateInputError is raised
unless every functional's bound over the box,
sum_i |n_i| max(|low_i|, |high_i|) + |c|, is below 2^63.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactlinalg as la
# extreme_rays is unused here; bench/tests/test_tracer.py checks that it is bound
from .dd import double_description, extreme_generators, extreme_rays, face_closure  # noqa: F401
from .errors import (
    DegenerateInputError,
    NotFullDimensionalError,
    NotReflexiveError,
    PolarUndefinedError,
)


def affine_span(points):
    """(base point, saturated basis of the linear span of differences)."""
    pts = la.mat(points)
    base = pts[0]
    diffs = [la.sub(p, base) for p in pts[1:]]
    diffs = [d for d in diffs if not la.is_zero(d)]
    if not diffs:
        return base, ()
    return base, la.saturation(diffs)


# (point, inequality) entries of one block's int64 array, 2 MiB: a box under a
# lattice map can hold millions of points (3.1 M for one benchmark map of a 5d
# polytope with 760 lattice points).
_BLOCK_ENTRIES = 2**18


def enumerate_lattice_points(ineqs, lows, highs):
    """All integer points of a box satisfying every ``<u,n> >= -c`` inequality,
    in lexicographic order.

    The box is [lows, highs] in every coordinate.  The leading j coordinates
    are looped over in Python, with j the least that keeps the rest of the box
    times the inequalities within _BLOCK_ENTRIES entries.  The rest of the box
    is one int64 array ``rest``, and a point is kept when
    ``rest @ N[:, j:].T + c >= -(N[:, :j] @ lead)`` holds in every row.  Every
    partial sum is bounded by sum_i |n_i| max(|low_i|, |high_i|) + |c|;
    DegenerateInputError is raised unless that bound is below 2^63 for every
    inequality, so the test is exact.
    """
    dim = len(lows)
    for n, c in ineqs:
        bound = sum(abs(x) * max(abs(lo), abs(hi)) for x, lo, hi in zip(n, lows, highs))
        if bound + abs(c) >= 2**63:
            raise DegenerateInputError("inequality too large for exact int64 tests")
    N = np.array([n for n, _ in ineqs], dtype=np.int64).reshape(len(ineqs), dim)
    c = np.array([c for _, c in ineqs], dtype=np.int64)
    sides = [max(hi - lo + 1, 0) for lo, hi in zip(lows, highs)]
    width = max(len(ineqs), 1)
    j = next((i for i in range(dim) if math.prod(sides[i:]) * width <= _BLOCK_ENTRIES), dim)
    rest = np.indices(sides[j:], dtype=np.int64).reshape(dim - j, math.prod(sides[j:]))
    rest = rest.T + lows[j:]
    partial = rest @ N[:, j:].T + c
    out = []
    leads = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows[:j], highs[:j])))
    for lead in leads:
        keep = np.all(partial >= -(N[:, :j] @ np.array(lead, dtype=np.int64)), axis=1)
        out.extend(lead + tuple(p) for p in rest[keep].tolist())
    return out


@dataclass(frozen=True)
class Face:
    """A face of a lattice polytope, identified by its tight facet set."""

    dim: int
    vertex_indices: frozenset
    tight_facets: frozenset
    npoints: int
    ninterior: int

    def sort_key(self):
        return tuple(sorted(self.vertex_indices))


@dataclass(frozen=True)
class SkeletonGraph:
    """Boundary lattice points joined along consecutive steps of 1-faces."""

    nodes: tuple
    edges: frozenset  # frozenset of 2-element frozensets of node indices

    def subgraph_components(self, keep_edge):
        """Connected components (as sorted node-index tuples) of the subgraph
        with edges filtered by ``keep_edge`` and only the nodes they touch."""
        kept = [tuple(sorted(e)) for e in self.edges if keep_edge(e)]
        nodes = sorted({i for e in kept for i in e})
        parent = {i: i for i in nodes}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in kept:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for i in nodes:
            comps.setdefault(find(i), []).append(i)
        return sorted(tuple(sorted(c)) for c in comps.values())


class LatticePolytope:
    """Full-dimensional lattice polytope with exact vertex and facet data.

    Built by ``hull`` or by the polar, which pass vertices as tuples of ints,
    so the constructor does not coerce them.
    """

    def __init__(self, rank, vertices, facets):
        self.rank = rank
        self.vertices = tuple(sorted(vertices))
        # facets: tuple of (primitive normal, offset), meaning <u,n> >= -c
        self.facets = tuple(sorted(facets))

    # -- construction -----------------------------------------------------

    @classmethod
    def hull(cls, points):
        """Convex hull of lattice points, which must span the ambient space.

        One double description of the homogenized points (1, p) gives the
        facets (c, n), each with the mask of the points on it, and the
        vertices are read off the masks.  Points that do not span raise
        NotFullDimensionalError carrying the affine span so the caller can
        restrict to a sublattice and retry.
        """
        pts = tuple(dict.fromkeys(la.mat(points)))
        if not pts:
            raise DegenerateInputError("no points")
        dim = len(pts[0])
        try:
            rays, masks = double_description(tuple((1,) + p for p in pts), dim + 1)
        except ValueError:
            base, basis = affine_span(pts)
            raise NotFullDimensionalError(
                "points are not full-dimensional",
                base=list(base),
                span_basis=[list(b) for b in basis],
            ) from None
        facets = []
        for f in rays:
            c, n = f[0], f[1:]
            if not any(n):
                # the inequality t >= 0 cannot be a facet of a bounded
                # full-dimensional polytope's homogenization
                raise DegenerateInputError("unbounded homogenization")
            # a facet of a lattice polytope contains lattice points, so the
            # jointly-primitive (c, n) already has a primitive normal part
            facets.append((n, c))
        vertices = [pts[i] for i in extreme_generators(masks, len(pts))]
        return cls(dim, vertices, facets)

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.rank == other.rank
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.rank, self.vertices))

    def __repr__(self):
        return f"LatticePolytope(rank={self.rank}, nvertices={len(self.vertices)})"

    def origin_is_interior(self):
        return all(c > 0 for _, c in self.facets)

    def is_reflexive(self):
        """True iff the origin is interior and every facet is at lattice distance 1."""
        return all(c == 1 for _, c in self.facets)

    def polar(self):
        """Polar polytope; exact, defined only for interior origin.

        Computed once per polytope.  The polar's own polar is computed afresh
        when asked for, not taken to be ``self``.  Raises NotReflexiveError
        (carrying the fractional vertices) when some polar vertex is not a
        lattice point.
        """
        return self._polar

    @cached_property
    def _polar(self):
        if not self.origin_is_interior():
            raise PolarUndefinedError("polar undefined: origin not interior")
        fractional = [
            [str(Fraction(x, c)) for x in n] for n, c in self.facets if c != 1
        ]
        if fractional:
            raise NotReflexiveError(
                "polar is not a lattice polytope", fractional_vertices=fractional
            )
        verts = tuple(n for n, _ in self.facets)
        facets = tuple((v, 1) for v in self.vertices)
        return LatticePolytope(self.rank, verts, facets)

    # -- lattice points ----------------------------------------------------

    @cached_property
    def _points_data(self):
        lows = [min(v[i] for v in self.vertices) for i in range(self.rank)]
        highs = [max(v[i] for v in self.vertices) for i in range(self.rank)]
        pts = enumerate_lattice_points(self.facets, lows, highs)
        # exact: the enumerator's bound covers <p, n> on the whole box
        N = np.array([n for n, _ in self.facets], dtype=np.int64)
        c = np.array([c for _, c in self.facets], dtype=np.int64)
        tight = np.array(pts, dtype=np.int64) @ N.T == -c
        interior, boundary = [], []
        # one frozenset per distinct tight row, shared by its points
        masks, by_row = {}, {}
        for p, row in zip(pts, tight):
            key = row.tobytes()
            if (mask := by_row.get(key)) is None:
                mask = by_row[key] = frozenset(np.flatnonzero(row).tolist())
            masks[p] = mask
            (boundary if mask else interior).append(p)
        return tuple(interior), tuple(boundary), masks

    def lattice_points(self):
        """(interior points, boundary points), each lexicographically sorted."""
        interior, boundary, _ = self._points_data
        return interior, boundary

    def npoints(self):
        interior, boundary, _ = self._points_data
        return len(interior) + len(boundary)

    # -- face lattice --------------------------------------------------------

    @cached_property
    def _facet_vertices(self):
        """Per facet, the mask of the vertices on it: bit i for vertex i."""
        return tuple(
            sum(1 << i for i, v in enumerate(self.vertices) if la.dot(v, n) == -c)
            for n, c in self.facets
        )

    @cached_property
    def _face_data(self):
        _, _, masks = self._points_data
        by_dim = {}
        for tight, vs in face_closure(self._facet_vertices, len(self.vertices)).items():
            verts = [self.vertices[i] for i in vs]
            dim = la.rank([la.sub(v, verts[0]) for v in verts[1:]])
            npts = sum(1 for m in masks.values() if tight <= m)
            nint = sum(1 for m in masks.values() if tight == m)
            by_dim.setdefault(dim, []).append(Face(dim, vs, tight, npts, nint))
        for fs in by_dim.values():
            fs.sort(key=Face.sort_key)
        return by_dim

    def faces(self, dim):
        """All faces of the given dimension, canonically ordered."""
        return tuple(self._face_data.get(dim, ()))

    def dual_face(self, face):
        """The polar face pairing to -1 with all of ``face``; needs reflexivity.
        Polar vertex j is facet j (both are sorted by the same vectors), so
        its vertex indices are the tight facets of ``face``."""
        if not self.is_reflexive():
            raise NotReflexiveError("dual faces require a reflexive polytope")
        dual = self.polar().faces(self.rank - 1 - face.dim)
        return next(f for f in dual if f.vertex_indices == face.tight_facets)

    # -- skeleton ------------------------------------------------------------

    def skeleton(self):
        """Graph on boundary lattice points; edges join consecutive points of 1-faces.

        A 1-face has exactly two vertices a and b, so its points sort by
        <p, b - a>."""
        interior, boundary, masks = self._points_data
        index = {p: i for i, p in enumerate(boundary)}
        edges = set()
        for f in self.faces(1):
            pts = [p for p in boundary if f.tight_facets <= masks[p]]
            a, b = (self.vertices[i] for i in f.vertex_indices)
            d = la.sub(b, a)
            pts.sort(key=lambda p: la.dot(p, d))
            for u, v in zip(pts, pts[1:]):
                edges.add(frozenset((index[u], index[v])))
        return SkeletonGraph(nodes=boundary, edges=frozenset(edges))
