"""Nef-partitions, Calabi-Yau equations, Hodge numbers and GKZ series data.

The equation builders homogenize lattice points of the relevant polytopes
against the rays of a crepant fan.  The keys of ``coefficients`` are the
monomials: one term per key, a lattice point of the polytope, never an
enumeration index.  The equations are ``sympoly.SparsePoly``s over the one
parameter field; a value may be anything ``ParamScalar.of`` accepts, so a
``str`` names a parameter, and ``coefficients=None`` takes every lattice
point with the parameter ``c_<point>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor

from . import exactlinalg as la
from .dd import extreme_rays
from .errors import (
    DegenerateInputError,
    NotNefPartitionError,
    NotReflexiveError,
)
from .fans import mori_cone
from .polytope import LatticePolytope, enumerate_lattice_points
from .sympoly import ParamScalar, SparsePoly


def vertices_from_inequalities(ineqs, dim):
    """Vertices of the bounded polyhedron {u : <u, n> >= -c}, exact rationals."""
    cons = [(c,) + tuple(n) for n, c in ineqs]
    cons.append((1,) + (0,) * dim)
    rays = extreme_rays(cons, dim + 1)
    verts = []
    for r in rays:
        if r[0] <= 0:
            if any(r[1:]):
                raise DegenerateInputError("inequality system is unbounded")
            continue
        verts.append(tuple(Fraction(x, r[0]) for x in r[1:]))
    return sorted(verts)


def _integral(points):
    out = []
    for p in points:
        q = tuple(int(x) for x in p)
        if any(Fraction(x) != y for x, y in zip(p, q)):
            return None
        out.append(q)
    return out


def _lattice_points_of(ineqs, rational_vertices):
    dim = len(rational_vertices[0])
    lows = [min(floor(v[i]) for v in rational_vertices) for i in range(dim)]
    highs = [max(ceil(v[i]) for v in rational_vertices) for i in range(dim)]
    return enumerate_lattice_points(tuple(ineqs), lows, highs)


def minkowski_sum_hull(point_sets):
    """Convex hull of the Minkowski sum of finite point sets."""
    acc = [(0,) * len(point_sets[0][0])]
    for ps in point_sets:
        acc = [la.add(a, p) for a in acc for p in ps]
    return LatticePolytope.hull(sorted(set(acc)))


@dataclass(frozen=True)
class NefPartition:
    """A partition of the polar vertex set with all of its induced polytopes."""

    base: LatticePolytope  # Delta
    polar_base: LatticePolytope  # Delta polar
    parts: tuple  # per part: tuple of vertex coordinates of the polar
    nabla_parts: tuple  # per part: vertices of Conv(V_i u {0})
    nabla: LatticePolytope
    part_polytopes: tuple  # per part: (vertices, lattice points) of Delta_i

    def dual(self):
        """Swap the roles of the two polytope families; an involution."""
        nabla_polar = self.nabla.polar()
        parts = []
        for verts, _pts in self.part_polytopes:
            vset = set(verts)
            parts.append(tuple(v for v in nabla_polar.vertices if v in vset))
        if sum(len(p) for p in parts) != len(nabla_polar.vertices):
            raise NotNefPartitionError(
                "dual vertex grouping is not a partition"
            )
        return make_nef_partition(
            self.nabla, {v: i for i, vs in enumerate(parts) for v in vs}
        )


def make_nef_partition(delta, assignment):
    """Build and validate a nef-partition of the vertex set of delta's polar.

    ``assignment`` maps each polar vertex (by coordinates) to its part index.
    Validity is certified by reflexivity of the Minkowski sum of the part
    hulls; the dual part polytopes are computed from the inequality systems.
    The sum is full-dimensional: every part hull holds the origin, so the sum
    holds every vertex of the full-dimensional polar.
    """
    if not delta.is_reflexive():
        raise NotReflexiveError("nef-partitions need a reflexive polytope")
    polar = delta.polar()
    missing = [v for v in polar.vertices if tuple(v) not in {tuple(k) for k in assignment}]
    if missing:
        raise NotNefPartitionError("assignment misses vertices", missing=missing)
    nparts = max(assignment.values()) + 1
    parts = tuple(
        tuple(v for v in polar.vertices if assignment[v] == i) for i in range(nparts)
    )
    if any(not p for p in parts):
        raise NotNefPartitionError("empty part")
    origin = (0,) * delta.rank
    nabla_parts = tuple(tuple(sorted(set(p) | {origin})) for p in parts)
    nabla = minkowski_sum_hull(nabla_parts)
    if not nabla.is_reflexive():
        raise NotNefPartitionError(
            "Minkowski sum of part hulls is not reflexive"
        )
    part_polytopes = []
    for i in range(nparts):
        ineqs = tuple(
            (v, 1 if assignment[v] == i else 0) for v in polar.vertices
        )
        verts = vertices_from_inequalities(ineqs, delta.rank)
        iverts = _integral(verts)
        if iverts is None:
            raise NotNefPartitionError(
                "a dual part polytope has fractional vertices"
            )
        pts = _lattice_points_of(ineqs, verts)
        part_polytopes.append((tuple(sorted(iverts)), tuple(pts)))
    return NefPartition(
        base=delta,
        polar_base=polar,
        parts=parts,
        nabla_parts=nabla_parts,
        nabla=nabla,
        part_polytopes=tuple(part_polytopes),
    )


def _check_crepant(fan, polar):
    boundary = set(polar.lattice_points()[1])
    bad = [r for r in fan.rays if r not in boundary]
    if bad:
        raise DegenerateInputError(
            "fan has non-crepant rays", rays=[list(r) for r in bad]
        )


def _section(fan, ring, coefficients, points):
    """One term per key m of ``coefficients``, with exponent <m, r> minus the
    minimum of <., r> over ``points`` on each ray coordinate r.  Every key
    must be one of ``points``, so no exponent is negative.  When ``points``
    are the lattice points of a lattice polytope, each minimum is the one
    over its vertices: a linear form attains its minimum over a polytope at
    a vertex."""
    outside = [m for m in coefficients if m not in points]
    if outside:
        raise DegenerateInputError(
            "coefficient keys are not lattice points of the polytope",
            points=[list(m) for m in outside],
        )
    mins = [min(la.dot(p, r) for p in points) for r in fan.rays]
    terms = {}
    for m, c in coefficients.items():
        exps = tuple(la.dot(m, r) - mn for r, mn in zip(fan.rays, mins))
        terms[exps] = ParamScalar.of(c)
    return SparsePoly(ring, terms)


def anticanonical_polynomial(delta, fan, coefficients, ray_names):
    """Anticanonical section: one term per key m of ``coefficients``, a
    lattice point of delta, with exponent <m, ray> + 1 on the coordinate
    that ``ray_names`` gives each ray.

    That is <m, ray> minus the minimum of <., ray> over delta's lattice
    points, attained at a vertex: a crepant ray lies on a facet of the polar,
    so the minimum is -1.
    """
    _check_crepant(fan, delta.polar())
    interior, boundary = delta.lattice_points()
    ring = tuple(ray_names[r] for r in fan.rays)
    points = set(interior) | set(boundary)
    return _section(fan, ring, coefficients, points)


def nef_ci_polynomials(np, fan, coefficients, ray_names):
    """The complete-intersection equations of a nef-partition on a crepant fan.

    ``coefficients`` holds one mapping per part, keyed by lattice points of
    that part's dual polytope, and ``ray_names`` names the coordinate of
    each ray.  The exponent of a ray coordinate in the term of a point m of
    the i-th dual part polytope Delta_i is <m, ray> minus the minimum of
    <., ray> over the lattice points of Delta_i, attained at a vertex.
    Delta_i contains the origin, so the minimum is at most 0 (on the
    original rays this is the part-indicator rule).
    """
    _check_crepant(fan, np.polar_base)
    ring = tuple(ray_names[r] for r in fan.rays)
    return [
        _section(fan, ring, coeffs, set(pts))
        for coeffs, (_, pts) in zip(coefficients, np.part_polytopes, strict=True)
    ]


def batyrev_hodge(delta):
    """(h11, h21) of an anticanonical hypersurface for a 4d reflexive polytope."""
    if delta.rank != 4:
        raise DegenerateInputError("Hodge formula implemented for rank 4 only")
    if not delta.is_reflexive():
        raise NotReflexiveError("Hodge numbers need a reflexive polytope")

    def h11_of(p):
        q = p.polar()
        total = q.npoints() - 5
        total -= sum(f.ninterior for f in q.faces(3))
        for f in q.faces(2):
            total += f.ninterior * q.dual_face(f).ninterior
        return total

    return h11_of(delta), h11_of(delta.polar())


@dataclass(frozen=True)
class GkzDegrees:
    """The Mori generators, each coefficient's degree vector under them, and
    the moduli."""

    generators: tuple  # the Mori cone generators of the mirror fan
    coeff_names: tuple  # canonical order: part by part, origin last in each
    columns: dict  # name -> tuple of degrees, one per Mori generator
    origin_flags: frozenset  # names playing the origin role
    moduli: tuple  # per generator: dict name -> exponent

    def pairing(self, name, k):
        return sum(d * ki for d, ki in zip(self.columns[name], k))


def gkz_degrees(mirror_fan, parts, part_ray_names, origin_names):
    """Degree data for the GKZ series of a nef complete intersection.

    ``parts`` lists the ray-index sets of the mirror fan per part;
    ``part_ray_names`` names each ray coefficient, ``origin_names`` each
    part's origin coefficient.  Per Mori generator the origin entry of a part
    is minus the sum of the part's ray entries.
    """
    gens = mori_cone(mirror_fan)
    columns = {}
    names = []
    moduli = []
    for i, part in enumerate(parts):
        for idx in part:
            name = part_ray_names[idx]
            names.append(name)
            columns[name] = tuple(g[idx] for g in gens)
        oname = origin_names[i]
        names.append(oname)
        columns[oname] = tuple(-sum(g[idx] for idx in part) for g in gens)
    for j in range(len(gens)):
        mono = {}
        for name in names:
            d = columns[name][j]
            if d:
                mono[name] = d
        moduli.append(mono)
    return GkzDegrees(
        generators=gens,
        coeff_names=tuple(names),
        columns=columns,
        origin_flags=frozenset(origin_names),
        moduli=tuple(moduli),
    )


def gkz_coefficient(degrees, k):
    """Exact series coefficient at the multi-index k (one entry per modulus).

    Product of factorials of minus the origin pairings over the product of
    factorials of the other pairings; any negative argument gives 0.
    """
    num = 1
    den = 1
    for name in degrees.coeff_names:
        v = degrees.pairing(name, k)
        if name in degrees.origin_flags:
            if -v < 0:
                return 0
            num *= factorial(-v)
        else:
            if v < 0:
                return 0
            den *= factorial(v)
    return num // den


def gkz_series_reindexed(degrees, max_total):
    """Coefficient table after shifting out the single mixed-sign support column.

    Requires exactly two moduli and exactly one non-origin coefficient whose
    degree vector mixes signs, of the shape (1, -c) up to generator order.
    Returns {(m, n): coefficient} over m + n <= max_total, m indexing the
    modulus with the negative entry.
    """
    if len(degrees.moduli) != 2:
        raise DegenerateInputError("reindexing needs exactly two moduli")
    mixed = [
        name
        for name in degrees.coeff_names
        if name not in degrees.origin_flags
        and any(d > 0 for d in degrees.columns[name])
        and any(d < 0 for d in degrees.columns[name])
    ]
    if len(mixed) != 1:
        raise DegenerateInputError(
            "reindexing needs exactly one mixed-sign support column"
        )
    col = degrees.columns[mixed[0]]
    rplus = col.index(max(col))
    rminus = 1 - rplus
    if col[rplus] != 1 or col[rminus] >= 0:
        raise DegenerateInputError("support column does not have the (1, -c) shape")
    c = -col[rminus]
    table = {}
    for m in range(max_total + 1):
        for n in range(max_total + 1 - m):
            k = [0, 0]
            k[rminus] = m
            k[rplus] = n + c * m
            table[(m, n)] = gkz_coefficient(degrees, tuple(k))
    return table
