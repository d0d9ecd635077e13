"""The model geometry: its names and points, and the one class that builds it.

Two reflexive families drive everything: a 5-dimensional polytope whose
Gorenstein Fano variety carries a two-part nef complete intersection, and the
4-dimensional simplex associated to the weighted projective space with
weights (1, 1, 2, 8, 12).  Both fibre torically over the 3-dimensional space
polar to the (1, 1, 4, 6) weighted projective space.

This module holds the points used to subdivide the model fans, the names of
homogeneous coordinates and equation coefficients, and the root families and
local monodromies of the double cover.  ``ModelGeometry`` builds the
polytopes, fans, morphisms and equations from the bundled fixtures that
``Fixtures`` loads; ``ci_reduced_coeffs`` and ``hyp_gauge`` are the paper's
specializations of the equation coefficients.  Expected values live with the
acceptance criteria, frozen by coordinates, never by an enumeration index.
"""

import json
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import prod

from .cy import anticanonical_polynomial, gkz_degrees, make_nef_partition, nef_ci_polynomials
from .fans import (
    Fan, check_compatibility, face_fan, homogeneous_map, star_subdivide, subdivide_domain,
)
from .jsonio import matrix_from_json, polytope_from_json
from .k3 import match_parameters
from .sympoly import ParamScalar

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


class Fixtures:
    """Loads the model data bundled with the package."""

    def _data(self, name):
        ref = resources.files("toricfib").joinpath("fixtures").joinpath(name)
        return json.loads(ref.read_text())

    def polytope(self, name):
        return polytope_from_json(self._data(name + ".json"))

    def matrix(self, name):
        return matrix_from_json(self._data(name + ".json"))

    def nef_assignment(self):
        data = self._data("nef_parts.json")
        out = {}
        for i, part in enumerate(data["parts"]):
            for v in part:
                out[tuple(int(x) for x in v)] = i
        return out


def ci_reduced_coeffs(xi0="xi0", xi1="xi1"):
    """The reduced CI family: a0, a1, a2 and b0, b1, b2, b8 set to 1,
    b3 = xi0 and b4 = xi1."""
    P = CI_COEFF_POINTS
    c0 = {P[n]: 1 for n in ("a0", "a1", "a2")}
    c1 = {P[n]: 1 for n in ("b0", "b1", "b2", "b8")}
    c1[P["b3"]] = xi0
    c1[P["b4"]] = xi1
    return (c0, c1)


def hyp_gauge(B, psi_s, psi0, psi1):
    """The paper's gauge of the hypersurface coefficients, by point."""
    P = HYP_COEFF_POINTS
    return {
        P["a0"]: B / 24,
        P["a1"]: Fraction(1, 12),
        P["a2"]: Fraction(1, 3),
        P["a3"]: Fraction(1, 2),
        P["a4"]: B / 24,
        P["a5"]: -psi_s / 12,
        P["a6"]: -psi1 / 6,
        P["a10"]: -psi0,
    }


class ModelGeometry:
    """The model geometry, built lazily from the fixtures and memoized per
    instance; criteria and tests share one instance instead of rebuilding."""

    def __init__(self, fixtures):
        self.fx = fixtures

    # model polytopes -----------------------------------------------------
    @cached_property
    def ci_polar(self):
        return self.fx.polytope("ci_polar")

    @cached_property
    def ci_base(self):
        return self.ci_polar.polar()

    @cached_property
    def hyp_simplex(self):
        return self.fx.polytope("hyp_simplex")

    @cached_property
    def k3_simplex(self):
        return self.fx.polytope("k3_simplex")

    @cached_property
    def base_pentagon(self):
        return self.fx.polytope("base_pentagon")

    @cached_property
    def nef_partition(self):
        return make_nef_partition(self.ci_base, self.fx.nef_assignment())

    @cached_property
    def base_fan(self):
        return face_fan(self.base_pentagon)

    @cached_property
    def line_fan(self):
        return Fan(1, ((1,), (-1,)), ((0,), (1,)))

    @cached_property
    def ci_face_fan(self):
        return face_fan(self.ci_polar)

    @cached_property
    def ci_fan(self):
        """Refinement of the 5d face fan compatible with the base projection."""
        return subdivide_domain(
            self.fx.matrix("proj_first_two"), self.ci_face_fan, self.base_fan
        )

    @cached_property
    def ci_partial(self):
        """Subfan avoiding the two quadric coordinates and the joint torus factor.

        Drops every cone touching the ray (1,-1,0,0,0) or (-1,1,0,0,0), or
        containing both (12,0,-1,-1,-1) and (0,12,-1,-1,-1).
        """
        fan = self.ci_fan
        i0 = fan.rays.index((1, -1, 0, 0, 0))
        i1 = fan.rays.index((-1, 1, 0, 0, 0))
        i4 = fan.rays.index((12, 0, -1, -1, -1))
        i5 = fan.rays.index((0, 12, -1, -1, -1))
        keep = [
            c
            for c in fan.all_cones()
            if i0 not in c and i1 not in c and not ({i4, i5} <= set(c))
        ]
        return fan.subfan(keep)

    @cached_property
    def hyp_fan_6(self):
        fan = face_fan(self.hyp_simplex.polar())
        return star_subdivide(fan, HYP_EDGE_MIDPOINT)

    @cached_property
    def hyp_fan_12(self):
        fan = self.hyp_fan_6
        for r in (
            HYP_BELOW_SLICE,
            HYP_ABOVE_SLICE,
            HYP_TRIANGLE_INTERIOR,
        ) + HYP_TRIANGLE_EDGE_POINTS:
            fan = star_subdivide(fan, r)
        return fan

    @cached_property
    def beta12(self):
        """Projection of the 12-ray 4d fan onto the line along the K3 slice."""
        matrix = self.fx.matrix("fibre_direction")
        return check_compatibility(matrix, self.hyp_fan_12, self.line_fan)

    @cached_property
    def transition(self):
        """Fibration onto the 12-ray 4d fan, with the final 5d edge-midpoint insertion."""
        matrix = self.fx.matrix("transition_matrix")
        domain = subdivide_domain(matrix, self.ci_partial, self.hyp_fan_12)
        domain = star_subdivide(domain, CI_EDGE_MIDPOINT)
        return check_compatibility(matrix, domain, self.hyp_fan_12)

    @cached_property
    def mirror_fan(self):
        """Face fan of the polar of nabla; its rays are named coefficient points."""
        return face_fan(self.nef_partition.nabla.polar())

    @cached_property
    def mirror_gkz(self):
        """GKZ degree data of the CI model over the Mori cone of the mirror fan."""
        names = {pt: n for n, pt in CI_COEFF_POINTS.items()}
        rays = self.mirror_fan.rays
        parts = [
            tuple(i for i, r in enumerate(rays) if r in vs)
            for vs, _ in self.nef_partition.part_polytopes
        ]
        ray_names = {i: names[r] for i, r in enumerate(rays)}
        return gkz_degrees(self.mirror_fan, parts, ray_names, ("a2", "b8"))

    @cached_property
    def ci_equations(self):
        """The two CI equations over every monomial, coefficients named a*, b*."""
        names = CI_COEFF_POINTS.items()
        return nef_ci_polynomials(
            self.nef_partition,
            self.ci_face_fan,
            tuple({pt: n for n, pt in names if n[0] == c} for c in "ab"),
            CI_RAY_NAMES,
        )

    def chart_equations(self, xi0="xi0", xi1="xi1"):
        """The reduced CI equations in the resolved partial chart, built on
        the rays of the transition domain.

        Lemma D (restriction to a chart).  The exponent on a ray depends only
        on the monomial's point and on that ray.  So the equation on a subset
        R' of the rays is the equation on all rays with the other coordinates
        set to 1, as long as distinct points keep distinct exponent vectors,
        and they do when R' spans N_Q: <m, r> = <m', r> for every r in R'
        forces m = m'.  The transition domain's rays span N_Q, and they are
        the chart's rays: every ray but the two quadric rays y0 and y1.
        """
        return nef_ci_polynomials(
            self.nef_partition,
            self.transition.domain,
            ci_reduced_coeffs(xi0, xi1),
            CI_RAY_NAMES,
        )

    def transition_rings(self):
        """Chart ring, equations with hypersurface parameters, and the pullback
        maps of the transition morphism.

        Returns a dict: ``chart_ring``; ``h2``, the gauged hypersurface on the
        12-ray fan with psi_s = -B; ``g0`` and ``g1``, the chart equations
        with the matched moduli; ``plain_map``, the monomial map of the
        transition by hypersurface coordinate; and ``scaled_map``, that map
        with the rational scaling of criterion ``pullback-identity``.
        """
        B, psi0, psi1 = (ParamScalar.of(n) for n in ("B", "psi0", "psi1"))
        phi = self.transition

        # hypersurface equation with the symmetric parameter specialized
        h2 = anticanonical_polynomial(
            self.hyp_simplex,
            self.hyp_fan_12,
            hyp_gauge(B, -B, psi0, psi1),
            HYP_RAY_NAMES,
        )
        # chart equations with the matched moduli
        g0, g1 = self.chart_equations(*match_parameters(B, psi0, psi1))
        chart_ring = g0.ring

        mm = homogeneous_map(phi)
        plain_map = {}
        for j, ray in enumerate(phi.codomain.rays):
            zname = HYP_RAY_NAMES[ray]
            plain_map[zname] = (1, {chart_ring[i]: e for i, e in mm.entries[j]})
        # the paper's scaling composed with the chart torus element 12^w
        # (see acceptance.criterion_14_pullback_identity), per chart
        # coordinate; the scalar of z is the product of c_y^e over z's monomial
        scalings = {
            "y6": 1 / psi0,
            "y8": Fraction(1, 2),
            "y9": -1,
            "y752": Fraction(1, 2),
            "y630": 12**3,
            "y667": 12**4,
        }
        scalings.update(dict.fromkeys(("y469", "y109", "y32", "y745"), Fraction(1, 12)))
        scaled_map = {
            z: (prod(scalings.get(y, 1) ** e for y, e in mono.items()), mono)
            for z, (_, mono) in plain_map.items()
        }
        return {
            "chart_ring": chart_ring,
            "h2": h2,
            "g0": g0,
            "g1": g1,
            "plain_map": plain_map,
            "scaled_map": scaled_map,
        }
