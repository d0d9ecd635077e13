"""Double-description conversion for pointed rational cones.

The primitive is `double_description`: the extreme rays of
{y : <y, a> >= 0 for all a in constraints}, each with the constraints tight
on it; `extreme_rays` is its sorted rays.  Conversion is self-dual, so the
same routine turns generators into facet normals, with the generator-facet
incidence, and inequalities into rays.  All arithmetic is on
arbitrary-precision integers.  Two more primitives read a cone's
generator-facet incidence alone: `face_closure` lists every face, and
`extreme_generators` picks the generators that are extreme rays (for the
homogenized points of a polytope, its vertices).

The loop starts from the lineality space R^dim, with the identity basis
(Fukuda-Prodon, "Double description method revisited", 1996).  A constraint
a on which a basis vector l is nonzero makes l, oriented so that <l, a> > 0,
a ray tight on every earlier constraint, and moves the other basis vectors
and the rays along l onto a's hyperplane, so their tight sets need no dot
product.  Any other constraint runs the usual step on the rays.
`double_description` takes its input as tuples of ints, as `hull` and
`ConeGeom` have coerced them, so the loop takes its dot products as
``sum(map(mul, ...))`` with no coercion and no length check, and `_meet`
divides by one gcd.  `extreme_rays` takes any integer rows (numpy arrays
too) and coerces them once with `mat`.

The facets of a simplicial cone need no loop: `simplicial_facets` returns
them in ray order, normal j tight on every ray but ray j, so the caller has
the generator-facet incidence with no dot product.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from math import gcd
from operator import and_, mul

from .exactlinalg import (
    dot, identity, independent_rows, mat, neg, primitive, scaled_inverse, vecmat,
)


def _initial_basis_rays(constraints, dim):
    """Rays of a simplicial cone cut out by dim independent constraints.

    Picks the first row-independent subset I of the constraints with
    ``independent_rows`` and returns (I, rays) where ray j satisfies
    <ray_j, a_i> = 0 for i != j and > 0 for i = j.  Ray j is column j of
    adj A signed by det A, for the chosen rows A (``scaled_inverse``).
    """
    idx = independent_rows(constraints)
    if len(idx) < dim:
        raise ValueError("cone is not pointed (constraints do not span)")
    d, adj = scaled_inverse([constraints[i] for i in idx])
    # column j of adj A pairs with row a_i to d * delta_ij; flip when d < 0
    sign = -1 if d < 0 else 1
    return idx, [primitive(tuple(sign * row[j] for row in adj)) for j in range(dim)]


def simplicial_facets(rays):
    """Primitive facet normals, in the span, of the cone on independent rays,
    in ray order: normal j is tight on every ray but ray j.

    With G = R R^T, the normal y_j = c_j R pairs with the rays to c_j G, so
    the columns c_j of d * G^-1 give y_j tight on every ray but ray j.  They
    are the rays of ``_initial_basis_rays(G, k)``, whose chosen rows are all
    of G.  Sorted, the normals are what ``extreme_rays`` returns for the rays
    and the span's equations.
    """
    gram = tuple(tuple(dot(r, s) for s in rays) for r in rays)
    _, coeffs = _initial_basis_rays(gram, len(rays))
    return tuple(primitive(vecmat(c, rays)) for c in coeffs)


def _meet(u, pu, w, pw):
    """primitive(pu * w - pw * u): tight on a when pu = <u, a> and pw = <w, a>.

    The loop never meets parallel vectors (the lines are independent of each
    other and of the rays, and two rays are never opposite, as every line of
    the cone lies in the lineality space), so the combination is not zero.
    """
    v = tuple(pu * y - pw * x for x, y in zip(u, w))
    g = gcd(*v)
    return tuple(x // g for x in v)


def double_description(constraints, dim):
    """Extreme rays of the pointed cone {y in R^dim : <y, a> >= 0}, each with
    the set of constraints tight on it.

    ``constraints`` is a sequence of tuples of ints, each of length dim, as
    ``LatticePolytope.hull`` and ``ConeGeom`` pass them; they are neither
    coerced nor checked.  Returns
    {primitive ray: frozenset of indices into ``constraints``}; a constraint
    that repeats is reported at its first position.  The constraint normals
    must span R^dim (equivalently the cone is pointed), or ValueError is
    raised.
    """
    first = {}
    for i, a in enumerate(constraints):
        first.setdefault(a, i)
    lines = list(identity(dim))  # lineality basis, tight on every constraint so far
    rays, masks = [], []  # bit b of masks[k]: the b-th constraint taken is tight on rays[k]
    for b, a in enumerate(first):
        bit = 1 << b
        lvals = [sum(map(mul, x, a)) for x in lines]
        vals = [sum(map(mul, r, a)) for r in rays]
        k = next((k for k, v in enumerate(lvals) if v), None)
        if k is not None:
            # line k leaves the lineality space as the ray on the side <l, a> > 0
            line, p = lines.pop(k), lvals.pop(k)
            if p < 0:
                line, p = neg(line), -p
            lines = [_meet(line, p, x, v) if v else x for x, v in zip(lines, lvals)]
            rays = [_meet(line, p, r, v) if v else r for r, v in zip(rays, vals)] + [line]
            masks = [m | bit for m in masks] + [bit - 1]
        else:
            plus = [j for j, v in enumerate(vals) if v > 0]
            minus = [j for j, v in enumerate(vals) if v < 0]
            new = [(r, m | bit if v == 0 else m) for r, m, v in zip(rays, masks, vals) if v >= 0]
            for p in plus:
                for m in minus:
                    common = masks[p] & masks[m]
                    # combinatorial adjacency: no ray but the pair is tight
                    # on all of the pair's common constraints
                    if sum(o & common == common for o in masks) == 2:
                        new.append((_meet(rays[p], vals[p], rays[m], vals[m]), common | bit))
            rays, masks = [r for r, _ in new], [m for _, m in new]
    if lines:
        raise ValueError("cone is not pointed (constraints do not span)")
    return {
        r: frozenset(i for b, i in enumerate(first.values()) if m >> b & 1)
        for r, m in zip(rays, masks)
    }


def extreme_rays(constraints, dim):
    """The sorted extreme rays of ``double_description``, for constraints
    given as any integer rows, coerced once by ``mat``."""
    return tuple(sorted(double_description(mat(constraints), dim)))


def face_closure(incidence, nfacets):
    """Every nonempty face, as {tight facet set: generator-index set}.

    ``incidence[i]`` is the frozenset of facets tight at generator i (a ray
    of a cone or a vertex of a polytope).  A face is keyed by the full set of
    facets tight on all of its generators; faces are found by closing facet
    sets from the empty one, one added facet at a time.
    """
    faces = {}
    frontier = [frozenset()]
    while frontier:
        tight = frontier.pop()
        gens = frozenset(i for i, m in enumerate(incidence) if tight <= m)
        if not gens:
            continue
        full = frozenset.intersection(*(incidence[i] for i in gens))
        if full in faces:
            continue
        faces[full] = gens
        frontier.extend(full | {j} for j in range(nfacets) if j not in full)
    return faces


def extreme_generators(incidence, dim):
    """Indices of the extreme generators of a pointed cone of dimension dim.

    ``incidence[i]`` holds the facets tight at generator i once each; no
    generator is zero or a positive multiple of another.  The facets tight at
    a generator cut out the smallest face containing it, so it is extreme iff
    no other generator is tight on all of them.  That needs at least dim - 1
    tight facets.  ``on[j]`` has bit b set when candidate b is tight at facet
    j, so the candidates tight at all of a generator's facets are one AND.
    """
    cands = [i for i, tight in enumerate(incidence) if len(tight) >= dim - 1]
    on = defaultdict(int)
    for b, i in enumerate(cands):
        for j in incidence[i]:
            on[j] |= 1 << b
    everyone = (1 << len(cands)) - 1
    return tuple(
        i
        for b, i in enumerate(cands)
        if reduce(and_, map(on.__getitem__, incidence[i]), everyone) == 1 << b
    )
