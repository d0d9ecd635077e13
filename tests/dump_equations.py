"""Print the exact equations that the acceptance criteria build with ``sympoly``.

It prints ``render()`` of the two complete-intersection equations of
``models.ModelGeometry.ci_equations``; the reduced equations
(``models.ci_reduced_coeffs``: a0, a1, a2 and b0, b1, b2, b8 set to 1,
b3 = xi0, b4 = xi1) on the face fan and, through
``ModelGeometry.chart_equations``, on the resolved partial chart; the
anticanonical hypersurface on the 6-ray fan with named coefficients and with
the gauged coefficients; the shifted cubic chart y8 -> y8 + c,
y9 -> y9 + d + e*y8 of the second equation; from
``ModelGeometry.transition_rings``, the hypersurface h2 of the 12-ray fan,
the two chart equations g0, g1 with the matched moduli, and the pullback of
h2 through the monomial map of the transition morphism, unscaled; and the
symbolic fibre moduli of both models and the parameter match.  The last line is the md5 of the lines before it, so two source trees
answer alike when they print the same last line.  It reads only public
names of ``models``, the ones the criteria read, so it runs against any tree
that has them.

Run from the root of a source checkout (pytest does not collect this file):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/dump_equations.py
"""

from __future__ import annotations

import hashlib

from toricfib import models
from toricfib.cy import anticanonical_polynomial, nef_ci_polynomials
from toricfib.k3 import fibre_params_Y, fibre_params_Z, match_parameters
from toricfib.sympoly import ParamScalar, SparsePoly, pullback


def dump_lines():
    ctx = models.ModelGeometry(models.Fixtures())
    var = ParamScalar.of
    lines = []
    for i, g in enumerate(ctx.ci_equations):
        lines.append(f"ci_equations {i}: {g.render()}")

    # criterion cy-equations: reduced and chart equations, 6-ray hypersurface
    reduced = nef_ci_polynomials(
        ctx.nef_partition,
        ctx.ci_face_fan,
        models.ci_reduced_coeffs(),
        models.CI_RAY_NAMES,
    )
    for i, g in enumerate(reduced):
        lines.append(f"reduced {i}: {g.render()}")
    for i, g in enumerate(ctx.chart_equations()):
        lines.append(f"chart {i}: {g.render()}")
    names = {pt: n for n, pt in models.HYP_COEFF_POINTS.items()}
    h = anticanonical_polynomial(
        ctx.hyp_simplex, ctx.hyp_fan_6, names, models.HYP_RAY_NAMES
    )
    lines.append(f"h6: {h.render()}")
    B, psi_s, psi0, psi1 = (var(n) for n in ("B", "psi_s", "psi0", "psi1"))
    gauged = anticanonical_polynomial(
        ctx.hyp_simplex,
        ctx.hyp_fan_6,
        models.hyp_gauge(B, psi_s, psi0, psi1),
        models.HYP_RAY_NAMES,
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
    data = ctx.transition_rings()
    lines.append(f"h2: {data['h2'].render()}")
    for i in range(2):
        lines.append(f"g{i}: {data[f'g{i}'].render()}")
    pulled = pullback(data["h2"], data["plain_map"], data["chart_ring"])
    lines.append(f"pullback h2: {pulled.render()}")

    # criterion k3-matching: symbolic fibre moduli and the parameter match
    xi0, xi1 = match_parameters(B, psi0, psi1)
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
