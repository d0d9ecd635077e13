import itertools
import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from toricfib import acceptance, cy, models
from toricfib import exactlinalg as la
from toricfib.cy import (
    batyrev_hodge,
    gkz_coefficient,
    gkz_degrees,
    gkz_series_reindexed,
    make_nef_partition,
    nef_ci_polynomials,
    anticanonical_polynomial,
)
from toricfib.errors import DegenerateInputError, NotNefPartitionError
from toricfib.fans import Fan, mori_cone
from toricfib.k3 import match_parameters
from toricfib.polytope import LatticePolytope
from toricfib.sympoly import ParamScalar, SparsePoly, pullback


def test_nef_partition_data(ctx):
    np_ = ctx.nef_partition
    assert len(np_.parts) == 2
    # three monomials for the first part, nine for the second
    assert len(np_.part_polytopes[0][1]) == 3
    assert len(np_.part_polytopes[1][1]) == 9
    assert len(np_.part_polytopes[0][0]) == 3  # origin is a vertex here
    # coefficient points are exactly the lattice points of the dual parts
    pts0 = set(np_.part_polytopes[0][1])
    pts1 = set(np_.part_polytopes[1][1])
    for name, pt in models.CI_COEFF_POINTS.items():
        assert pt in (pts0 if name.startswith("a") else pts1)
    # the mirror fan has seven rays, each a named coefficient point
    assert ctx.mirror_fan.nrays() == 7
    assert set(ctx.mirror_fan.rays) <= set(models.CI_COEFF_POINTS.values())


def test_nef_partition_four_identities(ctx):
    np_ = ctx.nef_partition
    delta = np_.base
    polar = np_.polar_base
    # polar base is the hull of the part hulls
    union = sorted({p for vs in np_.nabla_parts for p in vs})
    assert LatticePolytope.hull(union) == polar
    # polar of the Minkowski sum is the hull of the dual parts
    union_d = sorted({p for vs, _ in np_.part_polytopes for p in vs})
    assert LatticePolytope.hull(union_d) == np_.nabla.polar()
    # the base is the Minkowski sum of the dual parts
    from toricfib.cy import minkowski_sum_hull

    assert minkowski_sum_hull([vs for vs, _ in np_.part_polytopes]) == delta
    assert minkowski_sum_hull(list(np_.nabla_parts)) == np_.nabla


def test_nef_partition_single_part(ctx):
    delta = ctx.hyp_simplex
    assignment = {v: 0 for v in delta.polar().vertices}
    np_ = make_nef_partition(delta, assignment)
    assert np_.nabla == delta.polar()
    dual = np_.dual()
    assert dual.base == delta.polar()


def test_nef_partition_dual_involution(ctx):
    np_ = ctx.nef_partition
    dual = np_.dual()
    assert dual.base == np_.nabla
    back = dual.dual()
    assert back.base == np_.base
    assert {frozenset(p) for p in back.parts} == {frozenset(p) for p in np_.parts}


def test_invalid_split_errors_somewhere():
    # brute-force small reflexive polygons: every 2-part split either passes
    # the four identities or raises; at least one of each must occur
    polys = [
        LatticePolytope.hull([(1, 0), (0, 1), (-1, -1)]),
        LatticePolytope.hull([(1, 0), (0, 1), (-1, 0), (0, -1)]),
        LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        LatticePolytope.hull([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    ]
    ok, bad = 0, 0
    for p in polys:
        verts = p.polar().vertices
        for mask in range(1, 2 ** len(verts) - 1):
            assignment = {v: (mask >> i) & 1 for i, v in enumerate(verts)}
            if len(set(assignment.values())) < 2:
                continue
            try:
                np_ = make_nef_partition(p, assignment)
            except NotNefPartitionError:
                bad += 1
                continue
            ok += 1
            union = sorted({q for vs in np_.nabla_parts for q in vs})
            assert LatticePolytope.hull(union) == p.polar()
    assert ok > 0 and bad > 0


def test_nef_ci_equations_full(ctx):
    g0, g1 = ctx.ci_equations
    ring = g0.ring
    v = ParamScalar.of
    expected_g0 = SparsePoly.from_named(
        ring,
        [
            (v("a0"), {"y0": 2, "y4": 12}),
            (v("a1"), {"y1": 2, "y5": 12}),
            (v("a2"), {"y0": 1, "y1": 1, "y2": 1, "y3": 1}),
        ],
    )
    assert g0 == expected_g0
    expected_g1 = SparsePoly.from_named(
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
    )
    assert g1 == expected_g1


def test_nef_ci_equations_reduced(ctx):
    g0, g1 = nef_ci_polynomials(
        ctx.nef_partition, ctx.ci_face_fan, models.ci_reduced_coeffs(), models.CI_RAY_NAMES
    )
    ring = g0.ring
    v = ParamScalar.of
    assert g0 == SparsePoly.from_named(
        ring,
        [
            (1, {"y0": 2, "y4": 12}),
            (1, {"y1": 2, "y5": 12}),
            (1, {"y0": 1, "y1": 1, "y2": 1, "y3": 1}),
        ],
    )
    assert g1 == SparsePoly.from_named(
        ring,
        [
            (v("xi1"), {"y4": 6, "y5": 6, "y6": 6, "y7": 6}),
            (v("xi0"), {"y2": 2, "y6": 12}),
            (1, {"y3": 2, "y7": 12}),
            (1, {"y4": 1, "y5": 1, "y6": 1, "y7": 1, "y8": 1, "y9": 1}),
            (1, {"y8": 3}),
            (1, {"y9": 2}),
        ],
    )
    # canonical rendering is frozen (golden)
    assert g0.render() == "y0^2*y4^12 + y1^2*y5^12 + y0*y1*y2*y3"


def test_nef_ci_equations_resolved_chart(ctx):
    g0c, g1c = ctx.chart_equations()
    chart_ring = g0c.ring
    v = ParamScalar.of
    assert g0c == SparsePoly.from_named(
        chart_ring,
        [
            (1, {"y5": 12, "y109": 1}),
            (1, {"y4": 12, "y32": 1}),
            (1, {"y2": 1, "y3": 1, "y745": 1}),
        ],
    )
    expected_g1 = SparsePoly.from_named(
        chart_ring,
        [
            (
                1,
                {
                    "y3": 2,
                    "y7": 12,
                    "y109": 11,
                    "y469": 8,
                    "y630": 4,
                    "y32": 11,
                    "y667": 6,
                    "y752": 2,
                    "y745": 1,
                },
            ),
            (
                v("xi1"),
                {
                    "y4": 6,
                    "y5": 6,
                    "y6": 6,
                    "y7": 6,
                    "y109": 6,
                    "y469": 4,
                    "y630": 2,
                    "y32": 6,
                    "y667": 3,
                    "y752": 1,
                },
            ),
            (v("xi0"), {"y2": 2, "y6": 12, "y745": 1}),
            (
                1,
                {
                    "y4": 1,
                    "y5": 1,
                    "y6": 1,
                    "y7": 1,
                    "y8": 1,
                    "y9": 1,
                    "y109": 1,
                    "y469": 1,
                    "y630": 1,
                    "y32": 1,
                    "y667": 1,
                    "y752": 1,
                },
            ),
            (1, {"y8": 3, "y469": 1, "y630": 2, "y752": 1}),
            (1, {"y9": 2, "y667": 1, "y752": 1}),
        ],
    )
    assert g1c == expected_g1


def test_chart_equations_restrict_all_rays(ctx):
    """Lemma D of ``ModelGeometry.chart_equations``: on the transition
    domain's rays plus the two quadric rays, dropping the y0 and y1 exponents
    gives the chart equations term by term, for symbolic and for matched
    moduli."""
    domain_rays = ctx.transition.domain.rays
    assert la.rank(domain_rays) == 5
    quadric = ((1, -1, 0, 0, 0), (-1, 1, 0, 0, 0))
    full = Fan(5, quadric + domain_rays, ())
    B, psi0, psi1 = (ParamScalar.of(n) for n in ("B", "psi0", "psi1"))
    for xi in (("xi0", "xi1"), match_parameters(B, psi0, psi1)):
        chart = ctx.chart_equations(*xi)
        polys = nef_ci_polynomials(
            ctx.nef_partition, full, models.ci_reduced_coeffs(*xi), models.CI_RAY_NAMES
        )
        for g, want in zip(polys, chart):
            assert g.ring == ("y0", "y1") + want.ring
            dropped = {e[2:]: c for e, c in g.terms.items()}
            assert len(dropped) == len(g.terms)
            assert dropped == want.terms


def test_coefficient_keys_outside_polytope_raise(ctx):
    # (2, 0, 0, 0) is no lattice point of the 4d simplex
    with pytest.raises(DegenerateInputError):
        anticanonical_polynomial(
            ctx.hyp_simplex, ctx.hyp_fan_6, {(2, 0, 0, 0): 1}, models.HYP_RAY_NAMES
        )
    # b3's point lies in the second dual part polytope, not in the first
    c0, c1 = models.ci_reduced_coeffs()
    c0[models.CI_COEFF_POINTS["b3"]] = 1
    with pytest.raises(DegenerateInputError):
        nef_ci_polynomials(
            ctx.nef_partition, ctx.ci_face_fan, (c0, c1), models.CI_RAY_NAMES
        )


def test_anticanonical_hypersurface_6ray(ctx):
    fan = ctx.hyp_fan_6
    delta = ctx.hyp_simplex
    names = {pt: n for n, pt in models.HYP_COEFF_POINTS.items()}
    h = anticanonical_polynomial(delta, fan, names, models.HYP_RAY_NAMES)
    assert len(h.terms) == 8
    ring = h.ring
    v = ParamScalar.of
    expected = SparsePoly.from_named(
        ring,
        [
            (v("a0"), {"z0": 24, "z16": 12}),
            (v("a5"), {"z0": 12, "z3": 12, "z16": 12}),
            (v("a4"), {"z3": 24, "z16": 12}),
            (v("a6"), {"z0": 6, "z2": 6, "z3": 6, "z16": 6}),
            (v("a1"), {"z2": 12}),
            (v("a10"), {"z0": 1, "z1": 1, "z2": 1, "z3": 1, "z4": 1, "z16": 1}),
            (v("a2"), {"z1": 3}),
            (v("a3"), {"z4": 2}),
        ],
    )
    assert h == expected
    # every lattice point adds the three facet-interior monomials
    interior, boundary = delta.lattice_points()
    every = {m: f"c{i}" for i, m in enumerate(interior + boundary)}
    h_all = anticanonical_polynomial(delta, fan, every, models.HYP_RAY_NAMES)
    assert len(h_all.terms) == 11


def test_anticanonical_gauged_rendering(ctx):
    fan = ctx.hyp_fan_6
    delta = ctx.hyp_simplex
    B = ParamScalar.of("B")
    psi_s = ParamScalar.of("psi_s")
    psi1 = ParamScalar.of("psi1")
    psi0 = ParamScalar.of("psi0")
    coeffs = models.hyp_gauge(B, psi_s, psi0, psi1)
    h = anticanonical_polynomial(delta, fan, coeffs, models.HYP_RAY_NAMES)
    out = h.render()
    assert out.endswith("+ 1/3*z1^3 + 1/2*z4^2")
    assert h.monomial_coefficient(z2=12) == ParamScalar.of(Fraction(1, 12))
    assert h.monomial_coefficient(z0=24, z16=12) == B / 24


def test_anticanonical_smallest_case():
    seg = LatticePolytope.hull([(-1,), (1,)])
    fan = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    interior, boundary = seg.lattice_points()
    every = {m: f"c{i}" for i, m in enumerate(interior + boundary)}
    h = anticanonical_polynomial(seg, fan, every, {(1,): "z0", (-1,): "z1"})
    assert len(h.terms) == 3
    degs = sorted(h.terms)
    assert degs == [(0, 2), (1, 1), (2, 0)]


def test_batyrev_hodge_four_p1():
    # (P^1)^4: the anticanonical polytope is the 4-cube, its polar the
    # cross-polytope; the mirror swaps the two numbers
    cube = LatticePolytope.hull(list(itertools.product((-1, 1), repeat=4)))
    assert batyrev_hodge(cube) == (4, 68)
    assert batyrev_hodge(cube.polar()) == (68, 4)


def test_batyrev_hodge_p2_times_p2():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1)]
    assert batyrev_hodge(LatticePolytope.hull(rays).polar()) == (2, 83)


def test_gkz_degrees_keep_mori_generators(monkeypatch):
    # criterion mori-gkz reads the generators gkz_degrees was built from, so
    # a fresh context computes the mirror fan's Mori cone once
    calls = []

    def counted(fan):
        calls.append(fan)
        return mori_cone(fan)

    # cy is the one module that imports mori_cone; with the default
    # raising=True the patch fails loudly if that import moves
    monkeypatch.setattr(cy, "mori_cone", counted)
    fresh = models.ModelGeometry(models.Fixtures())
    assert acceptance.criterion_08_mori_gkz(fresh) == []
    assert len(calls) == 1
    assert fresh.mirror_gkz.generators == mori_cone(fresh.mirror_fan)


def _k_for(deg, m, n):
    """Multi-index with m over the mixed-sign generator, n over the other."""
    col = deg.columns["b4"]
    rminus = 0 if col[0] < 0 else 1
    k = [0, 0]
    k[rminus] = m
    k[1 - rminus] = n
    return tuple(k)


def test_gkz_coefficients(ctx):
    deg = ctx.mirror_gkz
    assert gkz_coefficient(deg, _k_for(deg, 0, 0)) == 1
    assert gkz_coefficient(deg, _k_for(deg, 1, 2)) == 55440
    assert gkz_coefficient(deg, _k_for(deg, 1, 0)) == 0
    assert (
        gkz_coefficient(deg, _k_for(deg, 1, 2))
        == factorial(2) * factorial(12) // (factorial(4) * factorial(6))
    )


def test_gkz_series_reindexed(ctx):
    deg = ctx.mirror_gkz
    table = gkz_series_reindexed(deg, 6)
    assert table[(0, 0)] == 1
    assert table[(0, 1)] == 60
    assert table[(1, 0)] == 55440
    # the one-parameter specialization matches the closed form
    for m in range(4):
        expect = (
            factorial(2 * m)
            * factorial(12 * m)
            // (factorial(m) ** 4 * factorial(4 * m) * factorial(6 * m))
        )
        assert table[(m, 0)] == expect


def test_gkz_nonnegative_integral(ctx):
    deg = ctx.mirror_gkz
    random.seed(11)
    for _ in range(120):
        k = (random.randint(0, 8), random.randint(0, 8))
        c = gkz_coefficient(deg, k)
        assert isinstance(c, int) and c >= 0


def test_gkz_single_part_projective_plane():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    deg = gkz_degrees(fan, [(0, 1, 2)], {0: "a1", 1: "a2", 2: "a3"}, ("a0",))
    assert deg.columns["a1"] == (1,)
    assert deg.columns["a0"] == (-3,)
    assert deg.moduli == ({"a1": 1, "a2": 1, "a3": 1, "a0": -3},)


def _mp_terms(poly, var_env, param_env):
    """The terms of poly at mpf variable values and rational parameters."""
    out = []
    for exps, coeff in poly.terms.items():
        c = coeff.evaluate(param_env)
        t = mp.mpf(c.numerator) / c.denominator
        for name, e in zip(poly.ring, exps):
            t *= var_env[name] ** e
        out.append(t)
    return out


def test_pullback_identity_with_sqrt12(ctx):
    """The paper's form of criterion pullback-identity, with the scaling
    y6 -> y6/(psi0*sqrt(12)), y9 -> -y9/sqrt(12), y8 and y752 halved, in
    256-bit arithmetic: 48*S(phi^*h2) = y3^2*y745*g1 at seeded rational
    points of g0 = 0, to 2^-200 of the largest term."""
    data = ctx.transition_rings()
    ring, g0, g1 = data["chart_ring"], data["g0"], data["g1"]
    pulled = pullback(data["h2"], data["plain_map"], ring)
    rng = random.Random(1812)

    def draw():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 11))

    with mp.workprec(256):
        r12 = mp.sqrt(12)
        for _ in range(6):
            params = {n: draw() for n in ("B", "psi0", "psi1")}
            pt = {n: draw() for n in ring}
            # g0 is linear in y109: g0 = a*y109 + b
            b = g0.evaluate(dict(pt, y109=0), params)
            a = g0.evaluate(dict(pt, y109=1), params) - b
            pt["y109"] = -b / a
            assert g0.evaluate(pt, params) == 0
            y = {n: mp.mpf(v.numerator) / v.denominator for n, v in pt.items()}
            psi0 = mp.mpf(params["psi0"].numerator) / params["psi0"].denominator
            scaled = dict(
                y,
                y6=y["y6"] / (psi0 * r12),
                y9=-y["y9"] / r12,
                y8=y["y8"] / 2,
                y752=y["y752"] / 2,
            )
            lhs = [48 * t for t in _mp_terms(pulled, scaled, params)]
            rhs = [y["y3"] ** 2 * y["y745"] * t for t in _mp_terms(g1, y, params)]
            big = max(abs(t) for t in lhs + rhs)
            assert abs(mp.fsum(lhs) - mp.fsum(rhs)) <= big * mp.mpf(2) ** -200
