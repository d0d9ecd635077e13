"""Concrete model geometry used by the bundled verification suite and CLI.

Two reflexive families drive everything: a 5-dimensional polytope whose
Gorenstein Fano variety carries a two-part nef complete intersection, and the
4-dimensional simplex associated to the weighted projective space with
weights (1, 1, 2, 8, 12).  Both fibre torically over the 3-dimensional space
polar to the (1, 1, 4, 6) weighted projective space.
"""

from __future__ import annotations

from .fans import Fan, check_compatibility, face_fan, star_subdivide, subdivide_domain
from .polytope import LatticePolytope

# vertices of the 5d polar polytope (complete-intersection model ambient)
CI_POLAR_VERTICES = (
    (1, -1, 0, 0, 0),
    (-1, 1, 0, 0, 0),
    (-1, -1, 0, 0, 0),
    (-1, -1, 2, 0, 0),
    (12, 0, -1, -1, -1),
    (0, 12, -1, -1, -1),
    (0, 0, -1, -1, -1),
    (0, 0, 11, -1, -1),
    (0, 0, -1, 2, -1),
    (0, 0, -1, -1, 1),
)

# 4d reflexive simplex for weights (1, 1, 2, 8, 12)
HYP_SIMPLEX_VERTICES = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, -2, -8, -12),
)

# 3d reflexive simplex for weights (1, 1, 4, 6); its polar carries the K3 fibres
K3_SIMPLEX_VERTICES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -4, -6))

# polygon whose face fan is the base surface of the 5d fibration
BASE_PENTAGON_VERTICES = ((1, -1), (-1, 1), (-1, -1), (1, 0), (0, 1))

# projection of the 5d lattice onto its first two coordinates
PROJ_FIRST_TWO = ((1, 0), (0, 1), (0, 0), (0, 0), (0, 0))

# projection of the 4d lattice along the K3 slice; target is a line
FIBRE_DIRECTION_4D = ((1,), (1,), (4,), (6,))

# lattice map carrying the 5d ambient onto the 4d one (transition morphism)
TRANSITION_MATRIX = (
    (1, 0, 0, 0),
    (-1, 0, 0, 0),
    (-1, 1, 0, 0),
    (-4, 0, 1, 0),
    (-6, 0, 0, 1),
)

# boundary points of the 4d polar used to resolve the hypersurface ambient:
# the midpoint of the edge joining (23,-1,-1,-1) and (-1,-1,-1,-1), ...
HYP_EDGE_MIDPOINT = (11, -1, -1, -1)
# ... the points just below/above the slice hyperplane of the fibration, ...
HYP_BELOW_SLICE = (-1, 10, -1, -1)
HYP_ABOVE_SLICE = (1, 10, -1, -1)
# ... the interior point of the triangular facet slice, and its edge points
HYP_TRIANGLE_INTERIOR = (-1, 1, 0, 0)
HYP_TRIANGLE_EDGE_POINTS = ((-1, 7, 0, -1), (-1, 3, 1, -1), (-1, 5, -1, 0))

# midpoint of the edge joining (-1,-1,0,0,0) and (-1,-1,2,0,0) on the 5d polar
CI_EDGE_MIDPOINT = (-1, -1, 1, 0, 0)

# homogeneous-coordinate names keyed by ray/point coordinates
CI_RAY_NAMES = {
    CI_POLAR_VERTICES[i]: f"y{i}" for i in range(10)
}
CI_RAY_NAMES.update(
    {
        (1, 0, 10, -1, -1): "y32",
        (0, 1, 10, -1, -1): "y109",
        (0, 0, 7, 0, -1): "y469",
        (0, 0, 3, 1, -1): "y630",
        (0, 0, 5, -1, 0): "y667",
        (-1, -1, 1, 0, 0): "y745",
        (0, 0, 1, 0, 0): "y752",
    }
)

HYP_RAY_NAMES = {
    (23, -1, -1, -1): "z0",
    (-1, -1, 2, -1): "z1",
    (-1, 11, -1, -1): "z2",
    (-1, -1, -1, -1): "z3",
    (-1, -1, -1, 1): "z4",
    HYP_EDGE_MIDPOINT: "z16",
    HYP_BELOW_SLICE: "z168",
    HYP_ABOVE_SLICE: "z170",
    HYP_TRIANGLE_INTERIOR: "z334",
    HYP_TRIANGLE_EDGE_POINTS[0]: "z251",
    HYP_TRIANGLE_EDGE_POINTS[1]: "z276",
    HYP_TRIANGLE_EDGE_POINTS[2]: "z325",
}

# coefficient names keyed by the monomial lattice point of each equation
CI_COEFF_POINTS = {
    "a0": (1, 0, 0, 0, 0),
    "a1": (0, 1, 0, 0, 0),
    "a2": (0, 0, 0, 0, 0),
    "b0": (0, 0, 0, 1, 0),
    "b1": (0, 0, 0, 0, 1),
    "b2": (0, 0, 1, 0, 0),
    "b3": (-1, -1, -1, -4, -6),
    "b4": (0, 0, 0, -2, -3),
    "b5": (0, 0, 0, -1, -2),
    "b6": (0, 0, 0, 0, -1),
    "b7": (0, 0, 0, -1, -1),
    "b8": (0, 0, 0, 0, 0),
}

HYP_COEFF_POINTS = {
    "a0": (1, 0, 0, 0),
    "a1": (0, 1, 0, 0),
    "a2": (0, 0, 1, 0),
    "a3": (0, 0, 0, 1),
    "a4": (-1, -2, -8, -12),
    "a5": (0, -1, -4, -6),
    "a6": (0, 0, -2, -3),
    "a10": (0, 0, 0, 0),
}


def ci_polar():
    return LatticePolytope.hull(CI_POLAR_VERTICES)


def ci_base():
    return ci_polar().polar()


def hyp_simplex():
    return LatticePolytope.hull(HYP_SIMPLEX_VERTICES)


def hyp_polar():
    return hyp_simplex().polar()


def k3_simplex():
    return LatticePolytope.hull(K3_SIMPLEX_VERTICES)


def k3_polar():
    return k3_simplex().polar()


def base_pentagon():
    return LatticePolytope.hull(BASE_PENTAGON_VERTICES)


def base_surface_fan():
    return face_fan(base_pentagon())


def line_fan():
    return Fan(1, ((1,), (-1,)), ((0,), (1,)))


def ci_fan_subdivided():
    """Refinement of the 5d face fan compatible with the base projection."""
    return subdivide_domain(PROJ_FIRST_TWO, face_fan(ci_polar()), base_surface_fan())


def ci_partial_fan(fan=None):
    """Subfan avoiding the two quadric coordinates and the joint torus factor.

    Drops every cone touching the ray (1,-1,0,0,0) or (-1,1,0,0,0), or
    containing both (12,0,-1,-1,-1) and (0,12,-1,-1,-1).
    """
    if fan is None:
        fan = ci_fan_subdivided()
    i0 = fan.rays.index((1, -1, 0, 0, 0))
    i1 = fan.rays.index((-1, 1, 0, 0, 0))
    i4 = fan.rays.index((12, 0, -1, -1, -1))
    i5 = fan.rays.index((0, 12, -1, -1, -1))
    selected = [
        c
        for c in fan.all_cones()
        if i0 not in c and i1 not in c and not ({i4, i5} <= set(c))
    ]
    return fan.subfan(selected)


def hyp_fan(extra_rays=()):
    """Face fan of the 4d polar, star-subdivided at the given points in order."""
    fan = face_fan(hyp_simplex().polar())
    for r in extra_rays:
        fan = star_subdivide(fan, r)
    return fan


def hyp_fan_6ray():
    return hyp_fan((HYP_EDGE_MIDPOINT,))


def hyp_fan_7ray():
    return hyp_fan((HYP_EDGE_MIDPOINT, HYP_TRIANGLE_INTERIOR))


def hyp_fan_12ray():
    return hyp_fan(
        (HYP_EDGE_MIDPOINT, HYP_BELOW_SLICE, HYP_ABOVE_SLICE, HYP_TRIANGLE_INTERIOR)
        + HYP_TRIANGLE_EDGE_POINTS
    )


def transition_morphism_small():
    """Fibration from the partial 5d fan onto the 7-ray 4d fan."""
    domain = subdivide_domain(TRANSITION_MATRIX, ci_partial_fan(), hyp_fan_7ray())
    return check_compatibility(TRANSITION_MATRIX, domain, hyp_fan_7ray())


def transition_morphism_resolved():
    """Fibration onto the 12-ray 4d fan, with the final 5d edge-midpoint insertion."""
    codomain = hyp_fan_12ray()
    domain = subdivide_domain(TRANSITION_MATRIX, ci_partial_fan(), codomain)
    domain = star_subdivide(domain, CI_EDGE_MIDPOINT)
    return check_compatibility(TRANSITION_MATRIX, domain, codomain)
