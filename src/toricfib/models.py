"""Names and points of the model geometry, keyed by lattice coordinates.

Two reflexive families drive everything: a 5-dimensional polytope whose
Gorenstein Fano variety carries a two-part nef complete intersection, and the
4-dimensional simplex associated to the weighted projective space with
weights (1, 1, 2, 8, 12).  Both fibre torically over the 3-dimensional space
polar to the (1, 1, 4, 6) weighted projective space.

This module holds the points used to subdivide the model fans, the names of
homogeneous coordinates and equation coefficients, and the root families and
local monodromies of the double cover.  The polytopes, fans and morphisms
themselves are built from the bundled fixtures by ``acceptance._Ctx``.
"""

from fractions import Fraction

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
    (1, -1, 0, 0, 0): "y0",
    (-1, 1, 0, 0, 0): "y1",
    (-1, -1, 0, 0, 0): "y2",
    (-1, -1, 2, 0, 0): "y3",
    (12, 0, -1, -1, -1): "y4",
    (0, 12, -1, -1, -1): "y5",
    (0, 0, -1, -1, -1): "y6",
    (0, 0, 11, -1, -1): "y7",
    (0, 0, -1, 2, -1): "y8",
    (0, 0, -1, -1, 1): "y9",
    (1, 0, 10, -1, -1): "y32",
    (0, 1, 10, -1, -1): "y109",
    (0, 0, 7, 0, -1): "y469",
    (0, 0, 3, 1, -1): "y630",
    (0, 0, 5, -1, 0): "y667",
    (-1, -1, 1, 0, 0): "y745",
    (0, 0, 1, 0, 0): "y752",
}

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

# the two cubic root families of the double cover, y^3 - x^4/4 y^2 -+ 2 x^11
# (1 + x^2): per power of y (ascending) the coefficient polynomial in x
# (ascending), as ``monodromy.RootFamily.build`` takes it
DOUBLE_COVER_FAMILIES = (
    ((0,) * 11 + (-2, 0, -2), (0,), (0, 0, 0, 0, Fraction(-1, 4)), (1,)),
    ((0,) * 11 + (2, 0, 2), (0,), (0, 0, 0, 0, Fraction(-1, 4)), (1,)),
)

# the local monodromies at x = 0, x = -1 and x = infinity, each as integer
# rows and a Gaussian scale, as ``monodromy.Mat2.of`` takes them
LOCAL_MONODROMIES = (
    (((0, 1), (-1, 0)), 1j),
    (((1, 1), (0, 1)), 1),
    (((0, 1), (-1, -1)), 1j),
)
