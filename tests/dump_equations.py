"""Print the exact equations that the acceptance criteria build with ``sympoly``.

It prints ``render()`` of the two complete-intersection equations of
``acceptance._Ctx.ci_equations``; the reduced equations (the a-coefficients
and the untouched b-coefficients set to 1, b3 = xi0, b4 = xi1) on the face fan
and on the resolved partial chart, before and after setting y0 = y1 = 1; the
anticanonical hypersurface on the 6-ray fan with named coefficients and with
the gauged coefficients; the shifted cubic chart y8 -> y8 + c,
y9 -> y9 + d + e*y8 of the second equation; the hypersurface h2 of the
12-ray fan and the two chart equations g0, g1 with the matched moduli, and
the pullback of h2 through the monomial map of the transition morphism,
unscaled; and the symbolic fibre moduli of both models and the parameter
match.  The last line is the md5 of the lines before it, so two source trees
answer alike when they print the same last line.  Only public names are read,
so older trees run it unchanged.

Run from the root of a source checkout (pytest does not collect this file):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/dump_equations.py
"""

from __future__ import annotations

import hashlib

from toricfib import acceptance, models
from toricfib.cy import anticanonical_polynomial, nef_ci_polynomials
from toricfib.fans import homogeneous_map
from toricfib.k3 import fibre_params_Y, fibre_params_Z, match_parameters
from toricfib.sympoly import ParamScalar, SparsePoly, pullback


def reduced_coeffs(xi0, xi1):
    pts = models.CI_COEFF_POINTS
    c0 = {pt: 1 for n, pt in pts.items() if n.startswith("a")}
    c1 = {pt: 1 for n, pt in pts.items() if n.startswith("b")}
    c1[pts["b3"]] = xi0
    c1[pts["b4"]] = xi1
    return (c0, c1)


def chart(polys, ring):
    """Set y0 = y1 = 1 and drop them from the ring."""
    one = SparsePoly.constant(polys[0].ring, 1)
    return [p.substitute({"y0": one, "y1": one}).project(ring) for p in polys]


def hyp_coeffs(B, psi_s, psi0, psi1):
    P = models.HYP_COEFF_POINTS
    return {
        P["a0"]: B / 24,
        P["a1"]: ParamScalar.rational(1, 12),
        P["a2"]: ParamScalar.rational(1, 3),
        P["a3"]: ParamScalar.rational(1, 2),
        P["a4"]: B / 24,
        P["a5"]: -psi_s / 12,
        P["a6"]: -psi1 / 6,
        P["a10"]: -psi0,
    }


def dump_lines():
    ctx = acceptance._Ctx(acceptance.Fixtures())
    var = ParamScalar.var
    lines = []
    for i, g in enumerate(ctx.ci_equations):
        lines.append(f"ci_equations {i}: {g.render()}")

    # criterion cy-equations: reduced and chart equations, 6-ray hypersurface
    xi = reduced_coeffs(var("xi0"), var("xi1"))
    reduced = nef_ci_polynomials(
        ctx.nef_partition,
        ctx.ci_face_fan,
        monomials="vertices+origin",
        coefficients=xi,
        ray_names=models.CI_RAY_NAMES,
    )
    for i, g in enumerate(reduced):
        lines.append(f"reduced {i}: {g.render()}")
    resolved = nef_ci_polynomials(
        ctx.nef_partition,
        ctx.chart_rays,
        monomials="vertices+origin",
        coefficients=xi,
        ray_names=models.CI_RAY_NAMES,
    )
    chart_ring = tuple(n for n in resolved[0].ring if n not in ("y0", "y1"))
    for i, g in enumerate(chart(resolved, chart_ring)):
        lines.append(f"chart {i}: {g.render()}")
    names = {pt: n for n, pt in models.HYP_COEFF_POINTS.items()}
    h = anticanonical_polynomial(
        ctx.hyp_simplex, ctx.hyp_fan_6, ray_names=models.HYP_RAY_NAMES, coeff_names=names
    )
    lines.append(f"h6: {h.render()}")
    B, psi_s, psi0, psi1 = (var(n) for n in ("B", "psi_s", "psi0", "psi1"))
    gauged = anticanonical_polynomial(
        ctx.hyp_simplex,
        ctx.hyp_fan_6,
        coefficients=hyp_coeffs(B, psi_s, psi0, psi1),
        ray_names=models.HYP_RAY_NAMES,
    )
    lines.append(f"h6 gauged: {gauged.render()}")

    # criterion chart-elimination: the shifted cubic chart
    g1 = ctx.ci_equations[1]
    ring = g1.ring
    one = SparsePoly.constant(ring, 1)
    cubic = g1.substitute({"y4": one, "y5": one, "y6": one, "y7": one})
    y8, y9 = (SparsePoly.variable(ring, n) for n in ("y8", "y9"))
    c, d, e = (SparsePoly.constant(ring, var(n)) for n in ("c", "d", "e"))
    shifted = cubic.substitute({"y8": y8 + c, "y9": y9 + d + e * y8})
    lines.append(f"shifted: {shifted.render()}")

    # criterion pullback-identity: h2, g0, g1 and the unscaled pullback
    h2 = anticanonical_polynomial(
        ctx.hyp_simplex,
        ctx.hyp_fan_12,
        coefficients=hyp_coeffs(B, -B, psi0, psi1),
        ray_names=models.HYP_RAY_NAMES,
    )
    lines.append(f"h2: {h2.render()}")
    xi0, xi1 = match_parameters(B, psi0, psi1)
    phi = ctx.transition
    domain_ring = tuple(models.CI_RAY_NAMES[r] for r in phi.domain.rays)
    matched = nef_ci_polynomials(
        ctx.nef_partition,
        ctx.chart_rays,
        monomials="vertices+origin",
        coefficients=reduced_coeffs(xi0, xi1),
        ray_names=models.CI_RAY_NAMES,
    )
    for i, g in enumerate(chart(matched, domain_ring)):
        lines.append(f"g{i}: {g.render()}")
    mm = homogeneous_map(phi)
    monomial_map = {
        models.HYP_RAY_NAMES[ray]: (1, {domain_ring[i]: k for i, k in mm.entries[j]})
        for j, ray in enumerate(phi.codomain.rays)
    }
    lines.append(f"pullback h2: {pullback(h2, monomial_map, domain_ring).render()}")

    # criterion k3-matching: symbolic fibre moduli and the parameter match
    s, t, u, v = (var(n) for n in ("s", "t", "u", "v"))
    lines.append(f"match xi0: {xi0.render()}")
    lines.append(f"match xi1: {xi1.render()}")
    for name, point in (
        ("Y", fibre_params_Y(u, v, var("xi0"), var("xi1"))),
        ("Y matched", fibre_params_Y(s, t, xi0, xi1)),
        ("Z", fibre_params_Z(s, t, B, psi0, psi1, psi_s)),
        ("Z psi_s = -B", fibre_params_Z(s, t, B, psi0, psi1, -B)),
    ):
        lines.append(f"fibre {name} pi: {point.pi.render()}")
        lines.append(f"fibre {name} sigma: {point.sigma.render()}")
    return lines


if __name__ == "__main__":
    lines = dump_lines()
    print("\n".join(lines))
    print(hashlib.md5("\n".join(lines).encode()).hexdigest())
