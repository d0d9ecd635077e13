"""Double-description conversion for pointed rational cones.

The primitive is `extreme_rays`: the extreme rays of
{y : <y, a> >= 0 for all a in constraints}.  Conversion is self-dual, so the
same routine turns generators into facet normals and inequalities into rays.
All arithmetic is on arbitrary-precision integers.  Two more primitives read
a cone's generator-facet incidence alone: `face_closure` lists every face,
and `extreme_generators` picks the generators that are extreme rays (for the
homogenized points of a polytope, its vertices).

The starting simplicial cone comes from two fraction-free eliminations: the
row echelon of `exactlinalg.independent_rows` picks the constraints, and
`exactlinalg.scaled_inverse` of them gives its rays as the columns of the
adjugate.  The same elimination, run on the Gram matrix R R^T of linearly
independent rays R, gives the facet normals of the simplicial cone they span
without the double description loop: `simplicial_facets`.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import and_

from .exactlinalg import dot, independent_rows, mat, primitive, scaled_inverse, vecmat


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
    """Primitive facet normals, in the span, of the cone on independent rays.

    With G = R R^T, the normal y_j = c_j R pairs with the rays to c_j G, so
    the columns c_j of d * G^-1 give y_j tight on every ray but ray j.  They
    are the rays of ``_initial_basis_rays(G, k)``.  Returns the sorted tuple
    that ``extreme_rays`` returns for the rays and the span's equations.
    """
    gram = tuple(tuple(dot(r, s) for s in rays) for r in rays)
    _, coeffs = _initial_basis_rays(gram, len(rays))
    return tuple(sorted(primitive(vecmat(c, rays)) for c in coeffs))


def extreme_rays(constraints, dim):
    """Extreme rays of the pointed cone {y in R^dim : <y, a> >= 0}.

    The constraint normals must span R^dim (equivalently the cone is
    pointed).  Returns a sorted tuple of primitive integer rays.
    """
    constraints = mat(constraints)
    constraints = tuple(dict.fromkeys(constraints))
    init_idx, rays = _initial_basis_rays(constraints, dim)
    processed = list(init_idx)
    # tight masks over processed constraints, kept in processing order
    masks = []
    for r in rays:
        m = 0
        for bit, ci in enumerate(processed):
            if dot(r, constraints[ci]) == 0:
                m |= 1 << bit
        masks.append(m)
    for ci in range(len(constraints)):
        if ci in init_idx:
            continue
        a = constraints[ci]
        vals = [dot(r, a) for r in rays]
        if all(v >= 0 for v in vals):
            bit = 1 << len(processed)
            processed.append(ci)
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_masks = []
        for p in plus:
            for m_ in minus:
                common = masks[p] & masks[m_]
                # combinatorial adjacency: no third ray is tight on the
                # common constraint set
                adjacent = True
                for o in range(len(rays)):
                    if o != p and o != m_ and (masks[o] & common) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                r = tuple(
                    vals[p] * x - vals[m_] * y
                    for x, y in zip(rays[m_], rays[p])
                )
                r = primitive(r)
                new_rays.append(r)
                new_masks.append(common)
        bit = 1 << len(processed)
        processed.append(ci)
        kept_rays = [rays[i] for i in plus] + [rays[i] for i in zero]
        kept_masks = [masks[i] for i in plus] + [masks[i] | bit for i in zero]
        for r, m in zip(new_rays, new_masks):
            kept_rays.append(r)
            kept_masks.append(m | bit)
        rays, masks = kept_rays, kept_masks
    # dedupe and order canonically
    return tuple(sorted(set(rays)))


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

    ``incidence[i]`` is the frozenset of facets tight at generator i; no
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
