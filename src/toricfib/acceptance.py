"""The bundled verification suite: every headline value this package must
reproduce, one criterion per function, each returning a CriterionResult.

Each criterion reads the model geometry from one ``models.ModelGeometry``,
built from the bundled fixtures so that the suite genuinely exercises the
I/O layer; expected values are frozen here by coordinates, never by any
enumeration index.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath as mp

from . import exactlinalg as la
from . import models
from .cy import (
    anticanonical_polynomial,
    batyrev_hodge,
    gkz_coefficient,
    gkz_series_reindexed,
    minkowski_sum_hull,
    nef_ci_polynomials,
)
from .errors import ToricError
from .fans import (
    check_compatibility,
    homogeneous_map,
    is_fibration,
    kernel_fan,
    normal_fan,
)
from .k3 import (
    fibre_params_Y,
    fibre_params_Z,
    match_parameters,
    singular_fibre_locus,
    ade_subgraph,
)
from .models import Fixtures, ModelGeometry
from .monodromy import (
    Loop,
    Mat2,
    RootFamily,
    classify_kodaira,
    compose,
    cycle_type,
    group_order,
    power_monodromy,
    singular_parameters,
    track_loop_at_infinity,
    track_roots,
)
from .polytope import LatticePolytope
from .sympoly import ParamScalar, SparsePoly, pseudo_divide, pullback


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# the old private name of the model geometry: bench/workloads.py reads it
# until the next change allowed to touch bench/ (ROADMAP item 20)
_Ctx = ModelGeometry


# -- small helpers --------------------------------------------------------


def _check(condition, label, failures):
    if not condition:
        failures.append(label)


# -- criteria -------------------------------------------------------------


def criterion_01_reflexivity(ctx):
    """reflexivity and polar duality of the three model polytopes"""
    fails = []
    ci = ctx.ci_polar
    hyp = ctx.hyp_simplex
    _check(ci.is_reflexive(), "5d polar reflexive", fails)
    _check(hyp.is_reflexive(), "4d simplex reflexive", fails)
    expected_polar = {
        (23, -1, -1, -1),
        (-1, -1, 2, -1),
        (-1, 11, -1, -1),
        (-1, -1, -1, -1),
        (-1, -1, -1, 1),
    }
    _check(
        set(hyp.polar().vertices) == expected_polar,
        "4d polar vertices match the printed columns",
        fails,
    )
    slice_poly = LatticePolytope.hull(
        [v[2:] for v in ctx.ci_polar.vertices if v[0] == 0 and v[1] == 0 and v != (0, 12, -1, -1, -1)]
    )
    _check(slice_poly.is_reflexive(), "3d slice reflexive", fails)
    for p in (ci, hyp, slice_poly):
        _check(p.polar().polar() == p, f"polar involution rank {p.rank}", fails)
    return fails


def criterion_02_fan_counts(ctx):
    """face fan (10 rays, 14 cones); projection-compatible refinement (10, 22)"""
    fails = []
    fan = ctx.ci_face_fan
    _check((fan.nrays(), fan.ngenerating_cones()) == (10, 14), "face fan (10, 14)", fails)
    sub = ctx.ci_fan
    _check((sub.nrays(), sub.ngenerating_cones()) == (10, 22), "refined fan (10, 22)", fails)
    return fails


def criterion_03_normal_fan(ctx):
    """normal fan of the K3 slice simplex"""
    fails = []
    slice_poly = ctx.k3_simplex.polar()
    rays = set(normal_fan(slice_poly).rays)
    _check(
        rays == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -4, -6)},
        "normal fan rays",
        fails,
    )
    return fails


def criterion_04_fibration_verdicts(ctx):
    """fibration verdicts for the three torically induced maps"""
    fails = []
    alpha = check_compatibility(ctx.fx.matrix("proj_first_two"), ctx.ci_fan, ctx.base_fan)
    _check(is_fibration(alpha), "base-surface projection is a fibration", fails)
    beta6 = check_compatibility(ctx.fx.matrix("fibre_direction"), ctx.hyp_fan_6, ctx.line_fan)
    _check(is_fibration(beta6), "line projection (6-ray fan) is a fibration", fails)
    _check(is_fibration(ctx.beta12), "line projection (12-ray fan) is a fibration", fails)
    phi = ctx.transition
    _check(is_fibration(phi), "transition morphism is a fibration", fails)
    kfan, sub = kernel_fan(phi)
    _check(
        [sub.from_coords(r) for r in kfan.rays] == [(-1, -1, 0, 0, 0)],
        "kernel fan ray",
        fails,
    )
    _check(sub.basis == ((1, 1, 0, 0, 0),), "kernel sublattice", fails)
    return fails


def criterion_05_homogeneous_maps(ctx):
    """monomial coordinate forms of the fibrations"""
    fails = []
    beta12 = ctx.beta12
    mm = homogeneous_map(beta12)
    names = [models.HYP_RAY_NAMES[r] for r in beta12.domain.rays]
    s_named = {
        (names[i], e) for i, e in mm.entries[beta12.codomain.rays.index((1,))]
    }
    t_named = {
        (names[i], e) for i, e in mm.entries[beta12.codomain.rays.index((-1,))]
    }
    _check(s_named == {("z0", 12), ("z170", 1)}, "s coordinate pullback", fails)
    _check(t_named == {("z3", 12), ("z168", 1)}, "t coordinate pullback", fails)
    phi = ctx.transition
    mmp = homogeneous_map(phi)
    dnames = [models.CI_RAY_NAMES[r] for r in phi.domain.rays]
    expected = {
        "z0": {("y4", 1)},
        "z1": {("y8", 1)},
        "z2": {("y7", 1)},
        "z3": {("y5", 1)},
        "z4": {("y9", 1)},
        "z16": {("y6", 1)},
        "z168": {("y109", 1)},
        "z170": {("y32", 1)},
        "z334": {("y3", 2), ("y745", 1), ("y752", 1)},
        "z251": {("y469", 1)},
        "z276": {("y630", 1)},
        "z325": {("y667", 1)},
    }
    for j, ray in enumerate(phi.codomain.rays):
        got = {(dnames[i], e) for i, e in mmp.entries[j]}
        _check(
            got == expected[models.HYP_RAY_NAMES[ray]],
            f"transition pullback of {models.HYP_RAY_NAMES[ray]}",
            fails,
        )
    return fails


GOLDEN_G0_REDUCED = "y0^2*y4^12 + y1^2*y5^12 + y0*y1*y2*y3"
GOLDEN_G1_REDUCED = (
    "xi1*y4^6*y5^6*y6^6*y7^6 + xi0*y2^2*y6^12 + y3^2*y7^12"
    " + y4*y5*y6*y7*y8*y9 + y8^3 + y9^2"
)
GOLDEN_H_GAUGED = (
    "(1/24)*B*z0^24*z16^12 + (1/24)*B*z3^24*z16^12 - (1/12)*psi_s*z0^12*z3^12*z16^12"
    " - (1/6)*psi1*z0^6*z2^6*z3^6*z16^6 + 1/12*z2^12 - psi0*z0*z1*z2*z3*z4*z16"
    " + 1/3*z1^3 + 1/2*z4^2"
)


def criterion_06_cy_equations(ctx):
    """complete-intersection and hypersurface equations, exact and rendered"""
    fails = []
    np_ = ctx.nef_partition
    fan = ctx.ci_face_fan
    g0, g1 = ctx.ci_equations
    _check(len(g0.terms) == 3, "first equation has 3 terms", fails)
    _check(len(g1.terms) == 9, "second equation has 9 terms", fails)
    v = ParamScalar.of
    ring = g0.ring
    _check(
        g0
        == SparsePoly.from_named(
            ring,
            [
                (v("a0"), {"y0": 2, "y4": 12}),
                (v("a1"), {"y1": 2, "y5": 12}),
                (v("a2"), {"y0": 1, "y1": 1, "y2": 1, "y3": 1}),
            ],
        ),
        "first equation terms",
        fails,
    )
    _check(
        g1
        == SparsePoly.from_named(
            ring,
            [
                (v("b4"), {"y4": 6, "y5": 6, "y6": 6, "y7": 6}),
                (v("b5"), {"y4": 4, "y5": 4, "y6": 4, "y7": 4, "y8": 1}),
                (v("b3"), {"y2": 2, "y6": 12}),
                (v("b2"), {"y3": 2, "y7": 12}),
                (v("b7"), {"y4": 3, "y5": 3, "y6": 3, "y7": 3, "y9": 1}),
                (v("b6"), {"y4": 2, "y5": 2, "y6": 2, "y7": 2, "y8": 2}),
                (v("b8"), {"y4": 1, "y5": 1, "y6": 1, "y7": 1, "y8": 1, "y9": 1}),
                (v("b0"), {"y8": 3}),
                (v("b1"), {"y9": 2}),
            ],
        ),
        "second equation terms",
        fails,
    )
    g0r, g1r = nef_ci_polynomials(
        np_, fan, models.ci_reduced_coeffs(), models.CI_RAY_NAMES
    )
    _check(g0r.render() == GOLDEN_G0_REDUCED, "reduced first equation rendering", fails)
    _check(g1r.render() == GOLDEN_G1_REDUCED, "reduced second equation rendering", fails)

    # equations in the resolved partial chart
    g0c, g1c = ctx.chart_equations()
    chart_ring = g0c.ring
    _check(
        g0c
        == SparsePoly.from_named(
            chart_ring,
            [
                (1, {"y5": 12, "y109": 1}),
                (1, {"y4": 12, "y32": 1}),
                (1, {"y2": 1, "y3": 1, "y745": 1}),
            ],
        ),
        "chart first equation",
        fails,
    )
    expected_g1c = SparsePoly.from_named(
        chart_ring,
        [
            (1, {"y3": 2, "y7": 12, "y109": 11, "y469": 8, "y630": 4, "y32": 11,
                 "y667": 6, "y752": 2, "y745": 1}),
            (v("xi1"), {"y4": 6, "y5": 6, "y6": 6, "y7": 6, "y109": 6, "y469": 4,
                        "y630": 2, "y32": 6, "y667": 3, "y752": 1}),
            (v("xi0"), {"y2": 2, "y6": 12, "y745": 1}),
            (1, {"y4": 1, "y5": 1, "y6": 1, "y7": 1, "y8": 1, "y9": 1, "y109": 1,
                 "y469": 1, "y630": 1, "y32": 1, "y667": 1, "y752": 1}),
            (1, {"y8": 3, "y469": 1, "y630": 2, "y752": 1}),
            (1, {"y9": 2, "y667": 1, "y752": 1}),
        ],
    )
    _check(g1c == expected_g1c, "chart second equation", fails)

    # anticanonical hypersurface on the 6-ray fan
    names = {pt: n for n, pt in models.HYP_COEFF_POINTS.items()}
    h = anticanonical_polynomial(
        ctx.hyp_simplex, ctx.hyp_fan_6, names, models.HYP_RAY_NAMES
    )
    _check(len(h.terms) == 8, "hypersurface has 8 terms", fails)
    _check(
        h.monomial_coefficient(z0=24, z16=12) == ParamScalar.of("a0"),
        "leading hypersurface monomial",
        fails,
    )
    B, psi_s, psi1, psi0 = (ParamScalar.of(n) for n in ("B", "psi_s", "psi1", "psi0"))
    gauged = anticanonical_polynomial(
        ctx.hyp_simplex,
        ctx.hyp_fan_6,
        models.hyp_gauge(B, psi_s, psi0, psi1),
        models.HYP_RAY_NAMES,
    )
    _check(gauged.render() == GOLDEN_H_GAUGED, "gauged hypersurface rendering", fails)
    _check(
        gauged.render().endswith("+ 1/3*z1^3 + 1/2*z4^2"),
        "gauged rendering tail",
        fails,
    )
    return fails


def criterion_07_chart_elimination(ctx):
    """shift substitution in the cubic chart: support and coefficients"""
    fails = []
    _, g1 = ctx.ci_equations
    ring = g1.ring
    one = SparsePoly.constant(ring, 1)
    chart = g1.substitute({"y4": one, "y5": one, "y6": one, "y7": one})
    y8 = SparsePoly.variable(ring, "y8")
    y9 = SparsePoly.variable(ring, "y9")
    c = SparsePoly.constant(ring, ParamScalar.of("c"))
    d = SparsePoly.constant(ring, ParamScalar.of("d"))
    e = SparsePoly.constant(ring, ParamScalar.of("e"))
    shifted = chart.substitute({"y8": y8 + c, "y9": y9 + d + e * y8})
    _check(
        shifted.support_names()
        == ["y8^3", "y2^2", "y3^2", "y8^2", "y8*y9", "y9^2", "y8", "y9", "1"],
        "monomial support after the shift",
        fails,
    )
    cc, dd, ee = (ParamScalar.of(n) for n in ("c", "d", "e"))
    b = {n: ParamScalar.of(n) for n in ("b0", "b1", "b5", "b6", "b7", "b8")}
    _check(
        shifted.monomial_coefficient(y8=2)
        == ee**2 * b["b1"] + 3 * cc * b["b0"] + ee * b["b8"] + b["b6"],
        "coefficient of y8^2",
        fails,
    )
    _check(
        shifted.monomial_coefficient(y9=1)
        == 2 * dd * b["b1"] + cc * b["b8"] + b["b7"],
        "coefficient of y9",
        fails,
    )
    _check(
        shifted.monomial_coefficient(y8=1)
        == 3 * cc**2 * b["b0"]
        + 2 * dd * ee * b["b1"]
        + cc * ee * b["b8"]
        + 2 * cc * b["b6"]
        + ee * b["b7"]
        + dd * b["b8"]
        + b["b5"],
        "coefficient of y8",
        fails,
    )
    return fails


def criterion_08_mori_gkz(ctx):
    """Mori generators, GKZ degree matrix, moduli monomials, coefficients"""
    fails = []
    deg, mirror_fan = ctx.mirror_gkz, ctx.mirror_fan
    gens = deg.generators
    _check(len(gens) == 2, "two Mori generators", fails)
    names = {pt: n for n, pt in models.CI_COEFF_POINTS.items()}
    as_dicts = []
    for gvec in gens:
        dd = {names[r]: gvec[i] for i, r in enumerate(mirror_fan.rays) if gvec[i]}
        dd["origin"] = gvec[-1]
        as_dicts.append(tuple(sorted(dd.items())))
    expected = {
        tuple(sorted({"b0": 2, "b1": 3, "b4": 1, "origin": -6}.items())),
        tuple(sorted({"a0": 1, "a1": 1, "b2": 1, "b3": 1, "b4": -2, "origin": -2}.items())),
    }
    _check(set(as_dicts) == expected, "Mori generator matrix", fails)
    order = ("a0", "a1", "a2", "b0", "b1", "b2", "b3", "b4", "b8")
    rows = {tuple(deg.columns[n][j] for n in order) for j in range(2)}
    _check(
        rows == {(0, 0, 0, 2, 3, 0, 0, 1, -6), (1, 1, -2, 0, 0, 1, 1, -2, 0)},
        "degree matrix rows",
        fails,
    )
    moduli = {tuple(sorted(m.items())) for m in deg.moduli}
    _check(
        tuple(sorted({"b0": 2, "b1": 3, "b4": 1, "b8": -6}.items())) in moduli,
        "first modulus monomial",
        fails,
    )
    _check(
        tuple(sorted({"a0": 1, "a1": 1, "a2": -2, "b2": 1, "b3": 1, "b4": -2}.items()))
        in moduli,
        "second modulus monomial",
        fails,
    )
    col = deg.columns["b4"]
    rminus = 0 if col[0] < 0 else 1

    def k_for(m, n):
        k = [0, 0]
        k[rminus] = m
        k[1 - rminus] = n
        return tuple(k)

    _check(gkz_coefficient(deg, k_for(0, 0)) == 1, "coefficient at (0,0)", fails)
    _check(gkz_coefficient(deg, k_for(1, 2)) == 55440, "coefficient at (1,2)", fails)
    _check(gkz_coefficient(deg, k_for(1, 0)) == 0, "coefficient at (1,0) vanishes", fails)
    table = gkz_series_reindexed(deg, 5)
    _check(table[(0, 1)] == 60, "reindexed (0,1)", fails)
    _check(table[(1, 0)] == 55440, "reindexed (1,0)", fails)
    for m in range(4):
        closed = (
            factorial(2 * m)
            * factorial(12 * m)
            // (factorial(m) ** 4 * factorial(4 * m) * factorial(6 * m))
        )
        _check(table[(m, 0)] == closed, f"one-parameter series at m={m}", fails)
    return fails


def criterion_09_hodge(ctx):
    """Hodge numbers of the hypersurface model and the quintic cross-check"""
    fails = []
    h11, h21 = batyrev_hodge(ctx.hyp_simplex)
    _check((h11, h21) == (243, 3), "hypersurface model Hodge numbers", fails)
    flipped = batyrev_hodge(ctx.hyp_simplex.polar())
    _check(flipped == (3, 243), "polar duality of the Hodge formula", fails)
    small = LatticePolytope.hull(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    )
    _check(batyrev_hodge(small.polar()) == (1, 101), "quintic simplex", fails)
    return fails


def criterion_10_kernel_relations(ctx):
    """the three echelon kernel bases from coordinate-identified point rows"""
    fails = []
    v2 = (-1, -1, 0, 0, 0)
    v8 = (0, 0, -1, 2, -1)
    v9 = (0, 0, -1, -1, 1)
    p745 = (-1, -1, 1, 0, 0)
    p32 = (1, 0, 10, -1, -1)
    p109 = (0, 1, 10, -1, -1)
    mN = ctx.fx.matrix("coord_swap_matrix")
    p_img = la.vecmat(p32, mN)
    _, boundary = ctx.ci_polar.lattice_points()
    bset = set(boundary)
    for p in (p32, p109, p745, p_img):
        _check(p in bset, f"point {p} lies on the 5d polar boundary", fails)
    _check(
        la.kernel_basis((v2, v8, v9, p745, p32, (-1, -1, 2, 0, 0)))
        == ((1, 0, 0, -2, 0, 1),),
        "first relation",
        fails,
    )
    _check(
        la.kernel_basis((v2, v8, v9, p745, p32, p109)) == ((11, 4, 6, -10, 1, 1),),
        "second relation",
        fails,
    )
    _check(
        la.kernel_basis((v2, v8, v9, p745, p32, p_img)) == ((11, 0, 0, -11, 1, -1),),
        "third relation (image point under the swap matrix)",
        fails,
    )
    return fails


def criterion_11_skeleton_ade(ctx):
    """edge interior-point pairing and the two directional skeleton subgraphs"""
    fails = []
    k3 = ctx.k3_simplex
    total = sum(e.ninterior * k3.dual_face(e).ninterior for e in k3.faces(1))
    _check(total == 0, "edge pairing sum vanishes", fails)
    P = k3.polar()
    _check(len(ade_subgraph(P, (1, 2, 3))) == 2, "two components for (1,2,3)", fails)
    _check(len(ade_subgraph(P, (0, 1, 1))) == 1, "one component for (0,1,1)", fails)
    return fails


def criterion_12_k3_matching(ctx):
    """fibre parameter matching, symbolically and at random rational points"""
    fails = []
    s, t, B, psi0, psi1 = (ParamScalar.of(n) for n in ("s", "t", "B", "psi0", "psi1"))
    xi0, xi1 = match_parameters(B, psi0, psi1)
    z = fibre_params_Z(s, t, B, psi0, psi1, -B)
    y = fibre_params_Y(s, t, xi0, xi1)
    _check(y.pi == z.pi, "pi identity (symbolic)", fails)
    _check(y.sigma == z.sigma, "sigma identity (symbolic)", fails)
    rng = random.Random(20260810)
    count = 0
    while count < 20:
        vals = {
            n: Fraction(rng.randint(-30, 30), rng.randint(1, 11))
            for n in ("B", "psi0", "psi1", "s", "t")
        }
        if vals["B"] == 0 or vals["psi0"] == 0:
            continue
        if vals["s"] * vals["t"] == 0 or vals["s"] + vals["t"] == 0:
            continue
        xi0n, xi1n = match_parameters(vals["B"], vals["psi0"], vals["psi1"])
        zn = fibre_params_Z(vals["s"], vals["t"], vals["B"], vals["psi0"], vals["psi1"], -vals["B"])
        yn = fibre_params_Y(vals["s"], vals["t"], xi0n, xi1n)
        _check(yn.pi.as_fraction() == zn.pi.as_fraction(), "pi at a random point", fails)
        _check(yn.sigma.as_fraction() == zn.sigma.as_fraction(), "sigma at a random point", fails)
        count += 1
    u, v_, xi0s = (ParamScalar.of(n) for n in ("u", "v", "xi0"))
    special = fibre_params_Y(u, v_, xi0s, 0)
    _check(special.sigma == ParamScalar.of(1), "sigma is 1 on the special subfamily", fails)
    return fails


def criterion_13_singular_locus(ctx):
    """singular fibre base points and their symmetric functions"""
    fails = []
    loc = singular_fibre_locus(Fraction(1, 12**6))
    _check(loc.pair == (1, 1), "double point at the special modulus", fails)
    rng = random.Random(7)
    for _ in range(10):
        xi0 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        loc = singular_fibre_locus(xi0)
        q = Fraction(12**6) * xi0
        _check(loc.pair_sum == (4 - 2 * q) / q, "pair sum formula", fails)
        _check(loc.pair_product == 1, "pair product is 1", fails)
        if loc.pair:
            a, b = loc.pair
            _check(a + b == loc.pair_sum and a * b == 1, "exact pair consistency", fails)
    return fails


def criterion_14_pullback_identity(ctx):
    """pullback of the squared part, the scaled pullback identity, and charts

    The paper states 48*S(phi^*h2) = y3^2*y745*g1 modulo g0 for the scaling
    S: y6 -> y6/(psi0*sqrt(12)), y9 -> -y9/sqrt(12), y8 -> y8/2,
    y752 -> y752/2.  Let T be the chart torus element 12^w, y -> 12^w(y)*y,
    with w = 1/2 on y6 and y9, 3 on y630, 4 on y667, -1 on y469, y109, y32
    and y745, and 0 elsewhere.  The composite S' of S and T is rational:
    y6 -> y6/psi0, y9 -> -y9, y8 and y752 halved, y630 times 12^3, y667
    times 12^4, and y469, y109, y32, y745 over 12.  Under the integer weight
    2w, g0 is homogeneous of degree -2 and g1 of degree 10, so T(g0) = g0/12
    and T(y3^2*y745*g1) = 12^4*y3^2*y745*g1 (y3^2*y745 has degree -2).  T is
    a ring automorphism, so applying it to the paper's identity
    48*S(phi^*h2) - y3^2*y745*g1 = q*g0 gives
    48*S'(phi^*h2) - 12^4*y3^2*y745*g1 = T(q)*g0/12, and T^-1 takes it back.
    T fixes the leading coefficient y5^12 of g0 in y109 and keeps degrees in
    y109, so one pseudo-remainder vanishes exactly when the other does.  The
    criterion checks the rational identity and the two weights, which
    together give the paper's identity over Q(sqrt(12)).
    """
    fails = []
    data = ctx.transition_rings()
    h2, g0, g1 = data["h2"], data["g0"], data["g1"]
    chart_ring = data["chart_ring"]
    parts = h2.collect("z334")
    r2 = parts[0]
    _check(len(r2.terms) == 3, "squared part has three monomials", fails)
    _check(
        sum(len(p.terms) for k, p in parts.items() if k > 0) == 5,
        "cofactor part has five monomials",
        fails,
    )
    pkr2 = pullback(r2, data["plain_map"], chart_ring)
    B = ParamScalar.of("B")
    y = {n: SparsePoly.variable(chart_ring, n) for n in chart_ring}
    inner = y["y5"] ** 12 * y["y109"] + y["y4"] ** 12 * y["y32"]
    expected = inner * inner * (y["y6"] ** 12) * (B / 24)
    _check(pkr2 == expected, "pullback of the squared part", fails)

    # S'(phi^*h2): the scalars of scaled_map are S' after the monomial map
    psih2 = pullback(h2, data["scaled_map"], chart_ring)
    lhs = psih2 * 48 - y["y3"] ** 2 * y["y745"] * g1 * 12**4
    _, rem, _ = pseudo_divide(lhs, g0, "y109")
    _check(not rem, "scaled pullback identity modulo the first equation", fails)
    weight = {"y6": 1, "y9": 1, "y630": 6, "y667": 8}
    weight.update(dict.fromkeys(("y469", "y109", "y32", "y745"), -2))
    w = [weight.get(n, 0) for n in chart_ring]
    for g, deg, label in ((g0, -2, "first"), (g1, 10, "second")):
        _check(
            all(sum(a * b for a, b in zip(w, e)) == deg for e in g.terms),
            f"{label} equation has degree {deg} under the torus weight 2w",
            fails,
        )

    fan = ctx.transition.domain
    def never_together(a, b):
        ia, ib = fan.rays.index(a), fan.rays.index(b)
        return not any(ia in c and ib in c for c in fan.max_cones)

    y2c, y3c = (-1, -1, 0, 0, 0), (-1, -1, 2, 0, 0)
    y6c, y745c, y752c = (0, 0, -1, -1, -1), (-1, -1, 1, 0, 0), (0, 0, 1, 0, 0)
    _check(never_together(y2c, y752c), "chart disjointness y2/y752", fails)
    _check(never_together(y2c, y3c), "chart disjointness y2/y3", fails)
    _check(never_together(y3c, y6c), "chart disjointness y3/y6", fails)
    _check(never_together(y745c, y752c), "chart disjointness y745/y752", fails)
    return fails


def criterion_15_monodromy_table(ctx):
    """root tracking around the eight singular fibres of the double cover"""
    fails = []
    prec = 128
    fam_a, fam_b = map(RootFamily.build, models.DOUBLE_COVER_FAMILIES)

    def run(p, init_step=None):
        """Permutations and residuals of every loop, tracked at p bits from
        the base point and singular values taken at p bits."""
        out = {}
        with mp.workprec(p):
            base = mp.mpc(-1) / 10
            sing_a = singular_parameters(fam_a, p)
            sing_b = singular_parameters(fam_b, p)
            allsing = sing_a + sing_b
            radius = mp.mpf("1e-4")
            for v in centers:
                loop = Loop(base=base, center=mp.mpc(v), radius=radius, margin=0.5)
                pa, res_a = track_roots(fam_a, loop, p, initial_step=init_step, _singulars=allsing)
                pb, res_b = track_roots(fam_b, loop, p, initial_step=init_step, _singulars=allsing)
                out[keys[v]] = (pa, pb, res_a, res_b)
            pa, res_a = track_loop_at_infinity(fam_a, base, 4.0, p, initial_step=init_step, _singulars=sing_a)
            pb, res_b = track_loop_at_infinity(fam_b, base, 4.0, p, initial_step=init_step, _singulars=sing_b)
            out["inf"] = (pa, pb, res_a, res_b)
        return out

    with mp.workprec(prec):
        base = mp.mpc(-1) / 10
        allsing = singular_parameters(fam_a, prec) + singular_parameters(fam_b, prec)
        centers = []
        for v, _ in sorted(allsing, key=lambda t: (mp.re(t[0]), mp.im(t[0]))):
            if not any(abs(v - u) < 1e-6 for u in centers):
                centers.append(v)
        _check(len(centers) == 7, "seven finite singular values", fails)
        keys = {v: mp.nstr(v, 8) for v in centers}

        run1 = run(prec)
        for key, (pa, pb, res_a, res_b) in run1.items():
            _check(max(res_a, res_b) < mp.mpf(10) ** -20, f"residual bound at {key}", fails)

        # per-loop cycle types of the table
        def types(v):
            pa, pb, *_ = run1[keys[v]]
            return (cycle_type(pa), cycle_type(pb))

        zero = [v for v in centers if abs(v) < 1e-8][0]
        plus_i = [v for v in centers if abs(v - mp.mpc(0, 1)) < 1e-6][0]
        minus_i = [v for v in centers if abs(v + mp.mpc(0, 1)) < 1e-6][0]
        quads = [v for v in centers if v not in (zero, plus_i, minus_i)]
        _check(types(zero) == ((3,), (3,)), "three-cycles at the origin", fails)
        _check(
            (cycle_type(run1["inf"][0]), cycle_type(run1["inf"][1])) == ((3,), (3,)),
            "three-cycles at infinity",
            fails,
        )
        _check(types(plus_i) == ((2, 1), (2, 1)), "transpositions at +i", fails)
        _check(types(minus_i) == ((2, 1), (2, 1)), "transpositions at -i", fails)
        pattern = sorted(types(v) for v in quads)
        _check(
            pattern
            == [((1, 1, 1), (2, 1)), ((1, 1, 1), (2, 1)), ((2, 1), (1, 1, 1)), ((2, 1), (1, 1, 1))],
            "one-sided transpositions at the four quadratic points",
            fails,
        )
        for v in quads:
            w = [u for u in quads if abs(u + v) < 1e-6]
            _check(len(w) == 1 and types(v) == tuple(reversed(types(w[0]))),
                   "antipodal quadratic points swap sides", fails)

        def six(pa, pb):
            return tuple(list(pa) + [p + 3 for p in pb])

        perms = [six(p[0], p[1]) for p in run1.values()]
        _check(group_order(perms) == 36, "generated group has order 36", fails)
        for p in perms:
            _check(sorted(p[:3]) == [0, 1, 2] and sorted(p[3:]) == [3, 4, 5],
                   "letters stay within their triples", fails)

        # total monodromy: loops composed in descending angular order about
        # the base, the loop at infinity last
        order = sorted(centers, key=lambda v: mp.arg(v - base), reverse=True)
        prod = tuple(range(6))
        for v in order:
            pa, pb, *_ = run1[keys[v]]
            prod = compose(prod, six(pa, pb))
        prod = compose(prod, six(run1["inf"][0], run1["inf"][1]))
        _check(prod == tuple(range(6)), "total monodromy is the identity", fails)

        # convergence: a quarter of the default maximal step agrees
        run_fine = run(prec, init_step=mp.mpf(1) / 32)
        _check(
            all(run_fine[k][0:2] == run1[k][0:2] for k in run1),
            "permutations stable under a quarter of the step",
            fails,
        )

    # 256-bit double check of every permutation
    out256 = run(256)
    for k in run1:
        _check(out256[k][0:2] == run1[k][0:2], f"256-bit double check at {k}", fails)
    return fails


def criterion_16_kodaira_tables(ctx):
    """matrix powers and Kodaira classification of the three local monodromies"""
    fails = []
    m0, m1, minf = (Mat2.of(rows, scale) for rows, scale in models.LOCAL_MONODROMIES)
    p0 = power_monodromy(m0, 6)
    p1 = power_monodromy(m1, 2)
    pinf = power_monodromy(minf, 6)
    _check(p0 == Mat2.identity(), "sixth power at the origin is the identity", fails)
    _check(p1 == Mat2.of([[1, 2], [0, 1]]), "square at -1 is the I2 matrix", fails)
    _check(pinf == Mat2.of([[-1, 0], [0, -1]]), "sixth power at infinity is -identity", fails)
    _check(classify_kodaira(p0) == "I0", "I0 at the origin", fails)
    _check(classify_kodaira(p1) == "I2", "I2 at -1", fails)
    _check(classify_kodaira(pinf) == "I0*", "I0* at infinity", fails)
    return fails


def criterion_17_property_suites(ctx):
    """randomized invariants: duality, certificates, integrality, conjugation"""
    fails = []
    rng = random.Random(1234)

    # polar involution and face-count duality over a pool of reflexive polytopes
    pool = [
        LatticePolytope.hull([(1, 0), (0, 1), (-1, -1)]),
        LatticePolytope.hull([(1, 0), (0, 1), (-1, 0), (0, -1)]),
        LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        LatticePolytope.hull([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
        ctx.k3_simplex,
        ctx.k3_simplex.polar(),
        ctx.hyp_simplex,
    ]
    found = 0
    attempts = 0
    while found < 30 and attempts < 4000:
        attempts += 1
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
        try:
            p = LatticePolytope.hull(pts)
        except ToricError:
            continue
        if p.is_reflexive():
            pool.append(p)
            found += 1
    for p in pool:
        q = p.polar()
        _check(q.polar() == p, "polar involution", fails)
        for d in range(p.rank):
            _check(
                len(p.faces(d)) == len(q.faces(p.rank - 1 - d)),
                "face count duality",
                fails,
            )
        interior, _ = p.lattice_points()
        _check(interior == ((0,) * p.rank,), "unique interior point", fails)

    # hermite and kernel certificates
    for _ in range(120):
        rows = [
            [rng.randint(-6, 6) for _ in range(3)] for _ in range(rng.randint(1, 4))
        ]
        h, u = la.hermite_form(rows)
        _check(la.matmul(u, la.mat(rows)) == h, "hermite certificate", fails)
        _check(la.det(u) in (1, -1), "hermite transform unimodular", fails)
        kern = la.kernel_basis(rows)
        for c in kern:
            _check(la.is_zero(la.vecmat(c, la.mat(rows))), "kernel annihilates", fails)

    # pseudo-division certificates
    ring = ("x", "y")
    for _ in range(120):
        def rand_poly():
            p = SparsePoly.zero(ring)
            for _ in range(rng.randint(1, 4)):
                p = p + SparsePoly(
                    ring,
                    {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-4, 4)},
                )
            return p

        f, g = rand_poly(), rand_poly()
        if g.degree("x") <= 0:
            continue
        q, r, power = pseudo_divide(f, g, "x")
        lc = g.collect("x")[g.degree("x")]
        _check((lc**power) * f == q * g + r, "pseudo-division certificate", fails)

    # GKZ integrality and nonnegativity
    deg = ctx.mirror_gkz
    for _ in range(120):
        k = (rng.randint(0, 9), rng.randint(0, 9))
        cval = gkz_coefficient(deg, k)
        _check(isinstance(cval, int) and cval >= 0, "GKZ coefficient integral", fails)

    # nef-partition identities on the running example
    np_ = ctx.nef_partition
    union = sorted({p for vs in np_.nabla_parts for p in vs})
    _check(LatticePolytope.hull(union) == np_.polar_base, "hull identity", fails)
    union_d = sorted({p for vs, _ in np_.part_polytopes for p in vs})
    _check(
        LatticePolytope.hull(union_d) == np_.nabla.polar(),
        "dual hull identity",
        fails,
    )
    _check(
        minkowski_sum_hull([vs for vs, _ in np_.part_polytopes]) == np_.base,
        "Minkowski identity",
        fails,
    )
    _check(
        minkowski_sum_hull(list(np_.nabla_parts)) == np_.nabla,
        "polar Minkowski identity",
        fails,
    )

    # Kodaira conjugation invariance
    S = Mat2.of([[0, -1], [1, 0]])
    T = Mat2.of([[1, 1], [0, 1]])
    Ti = Mat2.of([[1, -1], [0, 1]])
    samples = [
        Mat2.of(m)
        for m in (
            [[1, 2], [0, 1]],
            [[-1, 3], [0, -1]],
            [[1, 1], [-1, 0]],
            [[0, 1], [-1, 0]],
            [[0, 1], [-1, -1]],
            [[1, 0], [0, 1]],
            [[-1, 0], [0, -1]],
        )
    ]
    checked = 0
    for m in samples:
        want = classify_kodaira(m)
        for _ in range(16):
            p = Mat2.identity()
            for _ in range(rng.randint(1, 8)):
                p = p * rng.choice([S, T, Ti])
            pinv = Mat2(p.d, -p.b, -p.c, p.a)
            _check(classify_kodaira(p * m * pinv) == want, "Kodaira conjugation", fails)
            checked += 1
    _check(checked >= 100, "enough conjugation samples", fails)
    return fails


CRITERIA = [
    ("reflexivity-duality", criterion_01_reflexivity),
    ("fan-counts", criterion_02_fan_counts),
    ("normal-fan", criterion_03_normal_fan),
    ("fibration-verdicts", criterion_04_fibration_verdicts),
    ("homogeneous-maps", criterion_05_homogeneous_maps),
    ("cy-equations", criterion_06_cy_equations),
    ("chart-elimination", criterion_07_chart_elimination),
    ("mori-gkz", criterion_08_mori_gkz),
    ("hodge-numbers", criterion_09_hodge),
    ("kernel-relations", criterion_10_kernel_relations),
    ("skeleton-ade", criterion_11_skeleton_ade),
    ("k3-matching", criterion_12_k3_matching),
    ("singular-locus", criterion_13_singular_locus),
    ("pullback-identity", criterion_14_pullback_identity),
    ("monodromy-table", criterion_15_monodromy_table),
    ("kodaira-tables", criterion_16_kodaira_tables),
    ("property-suites", criterion_17_property_suites),
]

TIME_BUDGETS = {
    "reflexivity-duality": 1.0,
    "fan-counts": 5.0,
    "fibration-verdicts": 10.0,
    "mori-gkz": 30.0,
    "pullback-identity": 10.0,
    "monodromy-table": 120.0,
}


def run(only=None):
    """Run the acceptance criteria, or only the one named ``only``; returns a
    list of CriterionResult.  Raises ValueError when no criterion has that name."""
    criteria = CRITERIA
    if only is not None:
        criteria = [(name, func) for name, func in CRITERIA if name == only]
        if not criteria:
            raise ValueError(f"no acceptance criterion named {only!r}")
    ctx = ModelGeometry(Fixtures())
    results = []
    for name, func in criteria:
        start = time.perf_counter()
        try:
            fails = func(ctx)
        except Exception as exc:  # a crash is a failure with the exception text
            fails = [f"exception: {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        budget = TIME_BUDGETS.get(name)
        if budget is not None and elapsed > budget:
            fails = list(fails) + [f"time budget exceeded: {elapsed:.1f}s > {budget}s"]
        results.append(
            CriterionResult(
                name=name,
                passed=not fails,
                detail="; ".join(fails) if fails else "ok",
                seconds=elapsed,
            )
        )
    return results
