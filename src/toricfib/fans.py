"""Rational polyhedral fans, fan morphisms, subdivisions and the Mori cone.

Fans store primitive rays plus maximal cones as ray-index tuples; faces are
derived on demand, each cone's from its cached ray-facet incidence.
Morphisms carry per-cone compatibility certificates (the smallest codomain
cone containing each image); fibration verdicts, kernel fans, monomial
coordinate forms, and wall-relation Mori cones build on that.  Certificates
are monotone along faces and every proper face lies in a facet, so fibration
verdicts read minimality off the face poset, not off any cone's facets.
One tiling rule, ``_tiles``, decides both ``Fan.is_complete`` and whether a
cone's pieces in ``subdivide_domain`` cover it: each wall in two cones on
opposite sides of it, and one interior point in one cone only.

Three facts about a lattice map phi into a fan (any two of its cones meet in
a common face) spare ``subdivide_domain`` and ``is_fibration`` some work.

Lemma A (pieces do not nest).  Let c be a domain cone and s1, s2 codomain
cones whose pieces Pi = {x in c : phi(x) in si} satisfy P1 <= P2, with P1
full-dimensional in c.  Then phi(span c) lies in span r for the common face
r = s1 & s2, because P1 spans span c and lies in both preimages, so maps into
r.  Since si & span r = r, both pieces equal {x in c : phi(x) in r}.  So two
full-dimensional pieces of c are equal or neither contains the other.

Lemma B (minimal cones embed).  If c is minimal over t (cert(c) = t and no
proper face of c has certificate t), then ker phi & span c = 0.  Otherwise a
nonzero kernel direction through a relative-interior point of c reaches a
proper face G of c (c is pointed) whose image meets the relative interior of
t, so cert(G) = t.  Hence c's rays and their images have equal rank.

Lemma F (separated pieces).  Let f be a pulled-back inequality of a
codomain cone s (a facet normal, or either sign of an equation), with
<r, f> <= 0 on every ray r of a domain cone c and < 0 on one.  Then the
piece {x in c : phi(x) in s}, on which f >= 0, lies in c & f^perp, a face
of c that misses a ray of c.  So the piece is not full-dimensional, and
``subdivide_domain`` drops it with no double description.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import exactlinalg as la
from .dd import extreme_generators, extreme_rays, face_closure, simplicial_facets
from .errors import (
    DegenerateInputError,
    IncompatibleMorphismError,
    NoMonomialFormError,
    NotReflexiveError,
    SupportError,
)


class ConeGeom:
    """A pointed cone spanned by the given rays, held as an H-representation.

    Invariant: v lies in the cone iff <v, e> == 0 for every e in
    ``equations`` and <v, a> >= 0 for every a in ``ambient_ineqs``, that is
    iff <v, a> >= 0 for every a in ``inequalities``.  The equations cut out
    the saturated span of the rays, so this also decides integer membership;
    every query below reads these tuples.  Facet normals are computed in
    ambient coordinates and lie in the span of the rays.  A simplicial cone skips the double description: its normals come
    from one elimination on the Gram matrix of its rays
    (``dd.simplicial_facets``).  For any other cone the span's equations
    enter the double description as pairs of opposite inequalities.  Faces
    are read off the cached ray-facet incidence ``_ray_facets`` by
    ``dd.face_closure``.
    """

    def __init__(self, rays, ambient_rank):
        self.rays = la.mat(rays)
        self.ambient_rank = ambient_rank

    @property
    def dim(self):
        return self.ambient_rank - len(self.equations)

    @cached_property
    def equations(self):
        """Ambient functionals vanishing on the span."""
        if not self.rays:
            return la.identity(self.ambient_rank)
        return la.right_kernel(self.rays)

    @cached_property
    def ambient_ineqs(self):
        """Primitive facet normals, as ambient functionals lying in the span."""
        if not self.rays:
            return ()
        if self.is_simplicial():
            return simplicial_facets(self.rays)
        eqs = self.equations
        return extreme_rays(self.rays + eqs + tuple(map(la.neg, eqs)), self.ambient_rank)

    @cached_property
    def inequalities(self):
        """The cone as inequalities alone: the facet normals, then each
        equation and its negation."""
        return self.ambient_ineqs + tuple(x for e in self.equations for x in (e, la.neg(e)))

    @cached_property
    def _ray_facets(self):
        """Per ray, the frozenset of facet indices (into ambient_ineqs) it lies on."""
        return [
            frozenset(j for j, f in enumerate(self.ambient_ineqs) if la.dot(r, f) == 0)
            for r in self.rays
        ]

    def contains(self, v):
        v = la.vec(v)
        return all(la.dot(v, a) >= 0 for a in self.inequalities)

    def facet_ray_sets(self):
        """Ray-index subsets (into self.rays) tight on each facet."""
        return tuple(
            frozenset(i for i, m in enumerate(self._ray_facets) if j in m)
            for j in range(len(self.ambient_ineqs))
        )

    def all_face_ray_sets(self):
        """Ray-index subsets of every face, the zero cone included."""
        return self._face_ray_sets

    @cached_property
    def _face_ray_sets(self):
        faces = set(face_closure(self._ray_facets, len(self.ambient_ineqs)).values())
        faces.add(frozenset())  # the apex
        return tuple(sorted(faces, key=lambda s: (len(s), sorted(s))))

    def is_simplicial(self):
        return len(self.rays) == self.dim

    def is_smooth(self):
        """Rays extend to a basis of the ambient lattice."""
        return self.is_simplicial() and la.maximal_minor_gcd(self.rays) == 1


class Fan:
    """A fan given by primitive rays and maximal cones (ray-index tuples)."""

    def __init__(self, rank, rays, max_cones):
        self.rank = rank
        self.rays = la.mat(rays)
        if len(set(self.rays)) != len(self.rays):
            raise DegenerateInputError("duplicate rays in fan")
        cones = sorted({tuple(sorted(c)) for c in max_cones})
        self.max_cones = tuple(cones)
        self._geoms = {}  # sorted ray-index tuple -> ConeGeom

    def __repr__(self):
        return f"Fan(rank={self.rank}, nrays={len(self.rays)}, ncones={len(self.max_cones)})"

    def nrays(self):
        return len(self.rays)

    def ngenerating_cones(self):
        return len(self.max_cones)

    def cone_geom(self, idxset):
        key = tuple(sorted(idxset))
        if key not in self._geoms:
            self._geoms[key] = ConeGeom(tuple(self.rays[i] for i in key), self.rank)
        return self._geoms[key]

    def all_cones(self):
        """Every cone of the fan as a frozenset of ray indices (origin included)."""
        return self._all_cones

    @cached_property
    def _all_cones(self):
        out = {frozenset()}
        for c in self.max_cones:
            for fs in self.cone_geom(c).all_face_ray_sets():
                out.add(frozenset(c[i] for i in fs))
        return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))

    def is_smooth(self):
        return all(self.cone_geom(c).is_smooth() for c in self.max_cones)

    def is_complete(self):
        """Every maximal cone full-dimensional, and the cones tile the space
        once (``_tiles`` with no boundary)."""
        return self._complete

    @cached_property
    def _complete(self):
        geoms = [self.cone_geom(c) for c in self.max_cones]
        return all(g.dim == self.rank for g in geoms) and _tiles(geoms, ())

    def subfan(self, cones):
        """Fan on the maximal elements of the given ray-index sets.

        Rays not used by any surviving cone are dropped and the remainder are
        reindexed, keeping their original relative order.
        """
        sets = [frozenset(c) for c in cones]
        maximal = [s for s in sets if not any(s < t for t in sets)]
        used = sorted({i for s in maximal for i in s})
        remap = {old: new for new, old in enumerate(used)}
        rays = tuple(self.rays[i] for i in used)
        new_cones = sorted({tuple(sorted(remap[i] for i in s)) for s in maximal})
        return Fan(self.rank, rays, new_cones)


def _tiles(geoms, boundary):
    """Whether the cones, all of one span, cover their support exactly once.

    Every facet is keyed by its set of ray vectors, and walls on a hyperplane
    of ``boundary`` (functionals) are skipped.  Every other wall must lie in
    exactly two cones, on opposite sides of it: their facet normals there
    are primitive and lie in the span, so they must be opposite.  Then the
    cones cover the support some number of times, and the sum of the first
    cone's rays, interior to it, lying in no other cone makes that number one.
    """
    walls = {}
    for g in geoms:
        for fs, f in zip(g.facet_ray_sets(), g.ambient_ineqs):
            wall = frozenset(g.rays[i] for i in fs)
            if not any(all(la.dot(r, b) == 0 for r in wall) for b in boundary):
                walls.setdefault(wall, []).append(f)
    if not geoms or any(len(ns) != 2 or ns[0] != la.neg(ns[1]) for ns in walls.values()):
        return False
    inside = la.vec(map(sum, zip(*geoms[0].rays)))
    return not any(g.contains(inside) for g in geoms[1:])


def face_fan(p):
    """Cones over the facets of a reflexive polytope; rays are its vertices."""
    if not p.is_reflexive():
        raise NotReflexiveError("face fan requires a reflexive polytope")
    inc = p._vertex_facets
    cones = [
        tuple(i for i, m in enumerate(inc) if j in m) for j in range(len(p.facets))
    ]
    return Fan(p.rank, p.vertices, cones)


def normal_fan(p):
    """Inner facet normals as rays; one maximal cone per vertex."""
    normals = tuple(n for n, _ in p.facets)
    return Fan(p.rank, normals, [tuple(sorted(m)) for m in p._vertex_facets])


def star_subdivide(fan, ray):
    """Insert a primitive ray by star subdivision of every cone containing it.

    Inserting a ray the fan already has is a no-op; a ray that no cone
    contains raises ``SupportError``.
    """
    ray = la.vec(ray)
    if ray != la.primitive(ray):
        raise DegenerateInputError("subdivision ray must be primitive")
    if ray in fan.rays:
        return fan
    new_idx = len(fan.rays)
    cones, split = [], False
    for c in fan.max_cones:
        geom = fan.cone_geom(c)
        if not geom.contains(ray):
            cones.append(c)
            continue
        split = True
        for fs, f in zip(geom.facet_ray_sets(), geom.ambient_ineqs):
            if la.dot(ray, f) == 0:
                continue  # the facet contains the ray
            cones.append(tuple(sorted([c[i] for i in fs] + [new_idx])))
    if not split:
        raise SupportError("ray lies outside the fan support", ray=list(ray))
    return Fan(fan.rank, fan.rays + (ray,), cones)


@dataclass(frozen=True)
class FanMorphism:
    """A lattice map (acting on row vectors) compatible with two fans."""

    matrix: tuple
    domain: Fan
    codomain: Fan
    certificates: dict  # frozenset(domain ray idx) -> frozenset(codomain ray idx)

    def image(self, v):
        return la.vecmat(v, self.matrix)

    def cert(self, cone):
        cone = frozenset(cone)
        if cone in self.certificates:
            return self.certificates[cone]
        rays = [self.domain.rays[i] for i in sorted(cone)]
        c = _smallest_containing_cone(self.codomain, [self.image(r) for r in rays])
        if c is None:
            raise IncompatibleMorphismError(
                "no codomain cone contains the image", cone=[list(r) for r in rays]
            )
        self.certificates[cone] = c
        return c


def _smallest_containing_cone(fan, vectors):
    """The cone of the fan of least dimension containing every vector, or None.

    It is the smallest face of the first maximal cone containing the vectors:
    the rays tight on every facet that vanishes on all of them.  That face is
    the fan's answer only if its cones meet in common faces, which the caller
    guarantees (see ``check_compatibility``).
    """
    for c in fan.max_cones or ((),):  # a fan without cones still holds the origin
        geom = fan.cone_geom(c)
        if all(geom.contains(v) for v in vectors):
            tight = {
                j
                for j, f in enumerate(geom.ambient_ineqs)
                if all(la.dot(v, f) == 0 for v in vectors)
            }
            return frozenset(c[i] for i, m in enumerate(geom._ray_facets) if tight <= m)
    return None


def check_compatibility(matrix, domain, codomain):
    """Certify that every domain cone maps into a single codomain cone.

    The codomain must be a fan: any two of its cones meet in a common face.
    This is not checked; the certificate of a domain cone is the smallest
    face of the first maximal codomain cone that contains its image.
    """
    phi = FanMorphism(matrix=la.mat(matrix), domain=domain, codomain=codomain, certificates={})
    for c in domain.max_cones:
        phi.cert(c)
    return phi


def subdivide_domain(matrix, domain, codomain):
    """Coarsest refinement of the domain mapping each cone into a codomain cone.

    Every domain cone is intersected with the preimages of the codomain
    cones, and its distinct full-dimensional pieces are kept: none lies in
    another (Lemma A), and none is sought where Lemma F rules it out.  The
    zero cone is its own only piece.  New rays are the primitive generators
    of the pieces' edges.  A complete codomain's preimages cover every cone,
    since ``is_complete`` checks that its cones tile the space; otherwise
    each cone's pieces must tile it (``_tiles``), or ``SupportError`` is
    raised.  So the pieces are the maximal cones as they stand, and every
    ray is used: a domain ray is an edge of each piece that holds it.
    Already-compatible input comes back equal (Lemma A): a cone that maps
    into one codomain cone is its own only full-dimensional piece.
    """
    n = domain.rank
    back = la.transpose(la.mat(matrix))
    preimages = [
        tuple(la.vecmat(f, back) for f in codomain.cone_geom(t).inequalities)
        for t in codomain.max_cones
    ]
    pieces_all = set()
    for c in domain.max_cones:
        geom = domain.cone_geom(c)
        pieces = set()
        for preimage in preimages:
            vals = ([la.dot(r, f) for r in geom.rays] for f in preimage)
            if any(max(v, default=0) <= 0 and any(v) for v in vals):
                continue  # Lemma F: the piece lies in a proper face of c
            rays = extreme_rays(geom.inequalities + preimage, n)
            if la.rank(rays) == geom.dim:
                pieces.add(rays)
        if not codomain.is_complete() and not _tiles(
            [ConeGeom(p, n) for p in pieces], geom.ambient_ineqs
        ):
            raise SupportError("domain support does not map into the codomain support")
        pieces_all |= pieces
    # assemble: original rays keep their order, new rays appended in lex order
    new_rays = sorted({r for piece in pieces_all for r in piece} - set(domain.rays))
    rays = domain.rays + tuple(new_rays)
    index = {r: i for i, r in enumerate(rays)}
    return Fan(n, rays, [[index[r] for r in piece] for piece in pieces_all])


def is_fibration(phi):
    """Surjective lattice map with equidimensional minimal cones over each target cone.

    A domain cone c is minimal over its certificate when no other cone with
    that certificate has a proper subset of its rays.  Such a cone is a face
    of c and lies in a facet of c, which has the same certificate because
    certificates are monotone along faces; so this is the facet test.
    A minimal cone's dimension is the rank of its rays, which is also the
    rank of their images (Lemma B), so one rank test decides it.
    """
    k = phi.codomain.rank
    if k == 0:
        return True
    # surjective exactly when the k x k minors have gcd 1 (0: rank below k)
    if la.maximal_minor_gcd(la.transpose(phi.matrix)) != 1:
        return False
    by_cert = {}
    for c in phi.domain.all_cones():
        by_cert.setdefault(phi.cert(c), []).append(c)
    for target in phi.codomain.all_cones():
        group = by_cert.get(target)
        if not group:
            return False
        tdim = la.rank([phi.codomain.rays[i] for i in target])
        for c in group:
            if any(g < c for g in group):
                continue  # not minimal
            if la.rank([phi.domain.rays[i] for i in c]) != tdim:
                return False
    return True


def kernel_fan(phi):
    """The subfan inside ker dim, in a saturated basis of the kernel sublattice."""
    kern = la.kernel_basis(phi.matrix)
    sub = la.Sublattice(basis=kern, ambient_rank=phi.domain.rank)
    kset = {
        i
        for i, r in enumerate(phi.domain.rays)
        if la.is_zero(la.vecmat(r, phi.matrix))
    }
    inner = phi.domain.subfan(c for c in phi.domain.all_cones() if c and c <= kset)
    local_rays = tuple(sub.coords(r) for r in inner.rays)
    return Fan(len(kern), local_rays, inner.max_cones), sub


@dataclass(frozen=True)
class MonomialMap:
    """Pullback form of a fibration: each codomain coordinate as a monomial."""

    entries: tuple  # per codomain ray: tuple of (domain ray index, exponent)


def homogeneous_map(phi):
    """Monomial coordinate form; every ray must map onto a codomain ray or zero."""
    entries = [[] for _ in phi.codomain.rays]
    ray_index = {r: j for j, r in enumerate(phi.codomain.rays)}
    for i, r in enumerate(phi.domain.rays):
        w = la.vecmat(r, phi.matrix)
        if la.is_zero(w):
            continue
        p = la.primitive(w)
        if p not in ray_index:
            raise NoMonomialFormError(
                "ray image is interior to a higher-dimensional cone",
                ray=list(r),
                image=list(w),
            )
        c = next(w[t] // p[t] for t in range(len(p)) if p[t] != 0)
        entries[ray_index[p]].append((i, c))
    return MonomialMap(entries=tuple(tuple(sorted(e)) for e in entries))


def _pull_triangulate(geom):
    """Pulling triangulation (global lex ray order); local ray-index simplices."""
    if geom.is_simplicial():
        return [tuple(range(len(geom.rays)))]
    pull = min(range(len(geom.rays)), key=lambda i: geom.rays[i])
    out = []
    for fs in geom.facet_ray_sets():
        if pull in fs:
            continue
        fidx = sorted(fs)
        fgeom = ConeGeom(tuple(geom.rays[i] for i in fidx), geom.ambient_rank)
        for simplex in _pull_triangulate(fgeom):
            out.append(tuple(sorted([fidx[i] for i in simplex] + [pull])))
    return out


def mori_cone(fan):
    """Extremal effective curve classes from wall relations.

    Each generator is a relation among the fan rays, extended by one final
    coordinate for the origin equal to minus the sum of the other entries.
    Non-simplicial cones are triangulated (pulling, lexicographic ray order,
    no new rays) before wall relations are read off; the Mori cone is the
    cone the wall relations span (Cox-Little-Schenck, Toric Varieties, 6.4).

    Lemma E (walls of a complete fan).  A pulling triangulation with one
    global order restricts to the pulling triangulation of every face, so the
    triangulation of a complete fan is complete and simplicial.  Each of its
    walls lies in exactly two simplices, whose n + 1 rays span, so their
    relations have rank one.  The two simplices lie on opposite sides of the
    wall: ``is_complete`` checks this for the fan's walls, and the
    triangulation of a convex cone has it inside the cone.  Pairing the
    relation with the wall's normal then gives its two outer entries one
    sign, neither zero, so the first alone orients it.  A relation among
    some of the rays, padded with zeros, is an integer relation among all
    of them.  So no check is left.
    """
    if not fan.is_complete():
        raise DegenerateInputError("Mori cone requires a complete fan")
    simplices = set()
    for c in fan.max_cones:
        geom = fan.cone_geom(c)
        for simplex in _pull_triangulate(geom):
            simplices.add(tuple(sorted(c[i] for i in simplex)))
    walls = {}
    for s in simplices:
        for drop in s:
            wall = tuple(sorted(set(s) - {drop}))
            walls.setdefault(wall, []).append((s, drop))
    relations = set()
    for (s1, o1), (s2, _) in walls.values():
        idx = sorted(set(s1) | set(s2))
        (rel,) = la.kernel_basis([fan.rays[i] for i in idx])
        if rel[idx.index(o1)] < 0:
            rel = la.neg(rel)
        full = [0] * len(fan.rays)
        for t, i in enumerate(idx):
            full[i] = rel[t]
        relations.add(tuple(full))
    return tuple(sorted(g + (-sum(g),) for g in _extreme_generators(relations)))


def _extreme_generators(vectors):
    """Extreme rays of the cone positively spanned by the given vectors.

    The cone is pointed iff its facet normals span the dual of its span, and
    then its extreme rays are read off the ray-facet incidence.
    """
    prim = tuple(sorted({la.primitive(v) for v in map(la.vec, vectors) if not la.is_zero(v)}))
    if not prim:
        return ()
    geom = ConeGeom(prim, len(prim[0]))
    if la.rank(geom.ambient_ineqs) != geom.dim:
        raise DegenerateInputError("cone of relations is not strictly convex")
    return tuple(prim[i] for i in extreme_generators(geom._ray_facets, geom.dim))
