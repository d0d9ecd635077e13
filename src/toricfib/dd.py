"""Double-description conversion for pointed rational cones.

The one incidence format is a bitmask per facet: bit i is set when generator
i lies on it.  The primitive is `double_description`: the extreme rays of
{y : <y, a> >= 0 for all a in constraints}, each with the mask of the
constraints tight on it, bit i for constraint i; `extreme_rays` is its sorted
rays.  Conversion is self-dual, so the same loop turns generators into facet
normals, each with the mask of the generators on it, and inequalities into
rays.  All arithmetic is on arbitrary-precision integers.  Two more
primitives read the per-facet masks alone: `face_closure` lists every face,
and `extreme_generators` picks the generators that are extreme rays (for the
homogenized points of a polytope, its vertices).  `LatticePolytope.hull`,
`ConeGeom` and their face lattices read these masks and no other incidence.

The loop starts from the lineality space R^dim, with the identity basis
(Fukuda-Prodon, "Double description method revisited", 1996).  A constraint
a on which a basis vector l is nonzero makes l, oriented so that <l, a> > 0,
a ray tight on every earlier constraint, and moves the other basis vectors
and the rays along l onto a's hyperplane, so their tight sets need no dot
product.  Any other constraint runs the usual step on the rays: it keeps the
rays on which a >= 0 and adds the combination of each adjacent pair of rays
on opposite sides.  `double_description` takes its input as tuples of
ints, as `hull` and `ConeGeom` have coerced them, so the loop takes its dot
products as ``sum(map(mul, ...))`` with no coercion and no length check, and
each combination divides by one gcd.  `extreme_rays` takes any integer rows
(numpy arrays too) and coerces them once with `mat`.

Lemma G (adjacency needs rank).  At a ray step, let the processed
constraints cut out the cone C = L + P, with L its lineality space, of
dimension len(lines), and the rays those of P's image in R^dim / L, a pointed
cone of dimension dim - len(lines).  Two rays are adjacent iff the face they
span has dimension 2 there, iff the constraints tight on both have rank
dim - len(lines) - 2.  So a pair whose common mask has fewer than
dim - 2 - len(lines) bits is not adjacent, and the loop skips it before the
combinatorial test (no third ray is tight on the whole common set), which
stops at the third ray it finds.  A repeated constraint sets one bit per
copy, so the count only grows and the skip stays sound.  Without the
len(lines) term the bound is too high whenever a ray step runs while lines
remain (a constraint in the span of earlier ones, on which every line is
tight), and adjacent pairs are lost.

The facets of a simplicial cone need no loop: `simplicial_facets` returns
them in ray order, normal j tight on every ray but ray j, so the caller has
the generator-facet incidence with no dot product.
"""

from __future__ import annotations

from math import gcd
from operator import mul

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


def double_description(constraints, dim):
    """The double-description loop: (rays, masks) of the pointed cone
    {y in R^dim : <y, a> >= 0 for all a in constraints}.

    ``rays`` are the primitive extreme rays and bit i of ``masks[k]`` is set
    when constraint i is tight on ``rays[k]``; a constraint that repeats sets
    the bit of every copy.  ``constraints`` is a sequence of tuples of ints,
    each of length dim, neither coerced nor checked.  The constraint normals
    must span R^dim (equivalently the cone is pointed), or ValueError is
    raised.

    Two rays are combined only when adjacent (Lemma G of the module
    docstring): their common tight set has at least dim - 2 - len(lines)
    bits, and no third ray is tight on all of it.  The loop never combines
    parallel vectors (the lines are independent of each other and of the
    rays, and two rays are never opposite, as every line of the cone lies in
    the lineality space), so a combination is never zero.
    """
    lines = list(identity(dim))  # lineality basis, tight on every constraint so far
    rays, masks = [], []
    bit = 1  # the bit of the constraint being taken
    for a in constraints:
        for k, line in enumerate(lines):
            p = sum(map(mul, line, a))
            if p:
                break
        else:
            k = None
        if k is not None:
            # line k leaves the lineality space as the ray on the side <l, a> > 0,
            # and each line after it and each ray x with <x, a> = v != 0 moves
            # to primitive(p x - v l), onto a's hyperplane; the lines before it
            # are tight on a already
            del lines[k]
            if p < 0:
                line, p = neg(line), -p
            for vectors, lo in ((lines, k), (rays, 0)):
                for i in range(lo, len(vectors)):
                    x = vectors[i]
                    v = sum(map(mul, x, a))
                    if v:
                        x = [p * y - v * z for y, z in zip(x, line)]
                        g = gcd(*x)
                        vectors[i] = tuple(y // g for y in x)
            rays.append(line)
            masks = [m | bit for m in masks]
            masks.append(bit - 1)
            bit <<= 1
            continue
        need = dim - 2 - len(lines)
        plus, minus, new_rays, new_masks = [], [], [], []
        for r, m in zip(rays, masks):
            v = sum(map(mul, r, a))
            if v < 0:
                minus.append((r, v, m))
                continue
            if v:
                plus.append((r, v, m))
            else:
                m |= bit
            new_rays.append(r)
            new_masks.append(m)
        for r, v, m in plus:
            for s, w, n in minus:
                common = m & n
                if common.bit_count() < need:
                    continue
                hits = 0
                for o in masks:
                    if o & common == common:
                        hits += 1
                        if hits > 2:
                            break
                else:
                    # primitive(v s - w r): tight on the common set and on a
                    x = [v * y - w * z for y, z in zip(s, r)]
                    g = gcd(*x)
                    new_rays.append(tuple(y // g for y in x))
                    new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
        bit <<= 1
    if lines:
        raise ValueError("cone is not pointed (constraints do not span)")
    return rays, masks


def extreme_rays(constraints, dim):
    """The sorted rays of ``double_description``, for constraints given as
    any integer rows, coerced once by ``mat``."""
    rays, _ = double_description(mat(constraints), dim)
    return tuple(sorted(rays))


def face_closure(masks, ngens):
    """Every nonempty face, as {tight facet set: generator-index set}.

    ``masks[j]`` has bit i set when generator i (a ray of a cone or a vertex
    of a polytope) lies on facet j.  A face is the AND of the masks of the
    facets tight on it, keyed by the full set of those facets; faces are
    closed one facet at a time from the all-generators mask, the whole cone.
    """
    faces, seen = {}, set()
    frontier = [(1 << ngens) - 1]
    while frontier:
        gens = frontier.pop()
        if not gens or gens in seen:
            continue
        seen.add(gens)
        tight = frozenset(j for j, m in enumerate(masks) if m & gens == gens)
        faces[tight] = frozenset(i for i in range(ngens) if gens >> i & 1)
        frontier.extend(gens & m for j, m in enumerate(masks) if j not in tight)
    return faces


def extreme_generators(masks, ngens):
    """Indices of the extreme generators of a pointed cone, from one mask per
    facet: bit i of a mask is set when generator i lies on that facet.

    No generator is zero or a positive multiple of another.  The facets tight
    at a generator cut out the smallest face containing it, so it is extreme
    iff no other generator is tight on all of them: iff the AND of the masks
    of its facets is its own bit (with no facet, the AND is every generator,
    the one extreme generator of a ray).
    """
    meet = [(1 << ngens) - 1] * ngens
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            meet[low.bit_length() - 1] &= m
            rest ^= low
    return tuple(i for i, x in enumerate(meet) if x == 1 << i)
