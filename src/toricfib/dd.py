"""Double-description conversion for pointed rational cones.

The primitive is `extreme_rays`: the extreme rays of
{y : <y, a> >= 0 for all a in constraints}.  Conversion is self-dual, so the
same routine turns generators into facet normals and inequalities into rays.
Its partner `cone_contains` answers membership from the resulting facet and
equation description with dot products alone.  All arithmetic is on
arbitrary-precision integers.  The third primitive, `face_closure`, lists
every face of a cone or polytope from its generator-facet incidence alone.

The starting simplicial cone comes from two fraction-free eliminations: the
row echelon of `exactlinalg.independent_rows` picks the constraints, and one
Gauss-Jordan elimination of [A | I] over them gives its rays.  The same
elimination, run on the Gram matrix R R^T of linearly independent rays R,
gives the facet normals of the simplicial cone they span without the double
description loop: `simplicial_facets`.
"""

from __future__ import annotations

from .exactlinalg import dot, independent_rows, mat, primitive, vecmat


def _initial_basis_rays(constraints, dim):
    """Rays of a simplicial cone cut out by dim independent constraints.

    Picks the first row-independent subset I of the constraints with
    ``independent_rows`` and returns (I, rays) where ray j satisfies
    <ray_j, a_i> = 0 for i != j and > 0 for i = j.  The rays are the columns
    of d * A^-1, read off one fraction-free Gauss-Jordan elimination of
    [A | I] over the chosen rows A, which ends at [d * I | d * A^-1].
    """
    idx = independent_rows(constraints)
    if len(idx) < dim:
        raise ValueError("cone is not pointed (constraints do not span)")
    a = [list(constraints[i]) + [int(r == j) for j in range(dim)] for r, i in enumerate(idx)]
    prev = 1
    for k in range(dim):
        if a[k][k] == 0:
            # A is nonsingular, so some row below has a nonzero entry here
            s = next(i for i in range(k + 1, dim) if a[i][k])
            a[k], a[s] = a[s], a[k]
        pk = a[k]
        for i in range(dim):
            if i != k:
                ri = a[i]
                c = ri[k]
                a[i] = [(pk[k] * x - c * y) // prev for x, y in zip(ri, pk)]
        prev = pk[k]
    # column j of d * A^-1 pairs with row a_i to d * delta_ij; flip when d < 0
    sign = -1 if prev < 0 else 1
    rays = [primitive(tuple(sign * row[dim + j] for row in a)) for j in range(dim)]
    return idx, rays


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


def cone_contains(facet_normals, equations, v):
    """Membership test against a facet/equation description."""
    return all(dot(v, e) == 0 for e in equations) and all(
        dot(v, a) >= 0 for a in facet_normals
    )


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
