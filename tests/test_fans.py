import itertools
import random
import sys
from fractions import Fraction
from operator import attrgetter

import pytest

from toricfib import exactlinalg as la
from toricfib import acceptance, fans, models
from toricfib.dd import extreme_generators, extreme_rays, face_closure, simplicial_facets
from toricfib.errors import DegenerateInputError, IncompatibleMorphismError, SupportError
from toricfib.fans import (
    ConeGeom,
    Fan,
    _extreme_generators,
    _smallest_containing_cone,
    check_compatibility,
    face_fan,
    homogeneous_map,
    is_fibration,
    kernel_fan,
    mori_cone,
    normal_fan,
    star_subdivide,
    subdivide_domain,
)
from toricfib.polytope import LatticePolytope


def p2_fan():
    return Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


def cube_fan(n):
    """The fan of (P^1)^n: rays e_0, -e_0, e_1, -e_1, ..., one cone per orthant."""
    rays = tuple(
        tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1)
    )
    return Fan(n, rays, itertools.product(*((2 * i, 2 * i + 1) for i in range(n))))


@pytest.mark.parametrize("name", ["k3_simplex", "k3_polar", "hyp_simplex", "cube4", "ci_polar"])
def test_cone_faces_match_polytope_faces(ctx, name):
    # the cone over {1} x P has the faces of P as its faces, plus the apex;
    # its facet normals come from its own double description, not from P
    p = {
        "k3_simplex": ctx.k3_simplex,
        "k3_polar": ctx.k3_simplex.polar(),
        "hyp_simplex": ctx.hyp_simplex,
        "cube4": LatticePolytope.hull(list(itertools.product((-1, 1), repeat=4))),
        "ci_polar": ctx.ci_polar,
    }[name]
    cone = ConeGeom([(1,) + v for v in p.vertices], p.rank + 1)
    polytope_faces = {f.vertex_indices for d in range(p.rank + 1) for f in p.faces(d)}
    assert set(cone.all_face_ray_sets()) == polytope_faces | {frozenset()}
    fan = face_fan(p)
    assert fan.rays == p.vertices
    facets = {tuple(sorted(f.vertex_indices)) for f in p.faces(p.rank - 1)}
    assert set(fan.max_cones) == facets
    assert {tuple(sorted(s)) for s in cone.facet_ray_sets()} == facets


def test_face_fan_simplex(ctx):
    fan = face_fan(ctx.k3_simplex)
    assert fan.nrays() == 4
    assert fan.ngenerating_cones() == 4


def test_face_fan_square():
    sq = LatticePolytope.hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    fan = face_fan(sq)
    assert fan.nrays() == 4 and fan.ngenerating_cones() == 4


def test_normal_fan_of_slice_simplex(ctx):
    # the polar of the (1,1,4,6) simplex is the K3 slice polytope; its normal
    # fan is the fan of that weighted projective space
    slice_simplex = ctx.k3_simplex.polar()
    assert set(slice_simplex.vertices) == {
        (-1, -1, -1),
        (11, -1, -1),
        (-1, 2, -1),
        (-1, -1, 1),
    }
    fan = normal_fan(slice_simplex)
    assert set(fan.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -4, -6)}


def test_normal_fan_is_polar_face_fan(ctx):
    p = ctx.hyp_simplex
    assert set(normal_fan(p).rays) == set(face_fan(p.polar()).rays)


def test_subdivide_for_projection_counts(ctx):
    fan = ctx.ci_fan
    assert fan.nrays() == 10
    assert fan.ngenerating_cones() == 22
    # the input fan's rays keep their order and no rays are added
    assert fan.rays == tuple(sorted(ctx.ci_polar.vertices))


def test_subdivide_idempotent(ctx):
    # compatible input comes back equal (Lemma A), onto a complete codomain
    # and onto an incomplete one, whose coverage check then runs
    fan = ctx.ci_fan
    again = subdivide_domain(ctx.fx.matrix("proj_first_two"), fan, ctx.base_fan)
    assert (again.rays, again.max_cones) == (fan.rays, fan.max_cones)
    split = split_quadrant()
    again = subdivide_domain(la.identity(2), split, split)
    assert (again.rays, again.max_cones) == (split.rays, split.max_cones)


def test_compatibility_fails_before_subdivision(ctx):
    with pytest.raises(IncompatibleMorphismError):
        check_compatibility(ctx.fx.matrix("proj_first_two"), ctx.ci_face_fan, ctx.base_fan)


def test_identity_morphism_compatible():
    fan = p2_fan()
    phi = check_compatibility(la.identity(2), fan, fan)
    assert is_fibration(phi)
    kfan, sub = kernel_fan(phi)
    assert kfan.nrays() == 0
    assert sub.rank == 0


def _least_cone_by_scan(fan, vectors):
    """Reference: the least-dimensional cone of all_cones() containing every vector."""
    best = None
    for c in fan.all_cones():
        geom = fan.cone_geom(c)
        if all(geom.contains(v) for v in vectors):
            if best is None or geom.dim < fan.cone_geom(best).dim:
                best = c
    return best


@pytest.mark.parametrize(
    "name",
    ["base_fan", "line_fan", "ci_face_fan", "ci_fan", "ci_partial", "hyp_fan_6", "hyp_fan_12"],
)
def test_smallest_containing_cone_matches_scan(ctx, name):
    fan = getattr(ctx, name)
    rng = random.Random(name)
    cones = fan.all_cones()
    maximal = {frozenset(c) for c in fan.max_cones}
    seen = {"face": 0, "maximal": 0, "none": 0, "outside": 0}
    for _ in range(60):
        vectors = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                # a nonnegative combination of the rays of one cone
                c = sorted(rng.choice(cones))
                coef = [rng.randint(0, 3) for _ in c]
                vectors.append(
                    tuple(sum(k * fan.rays[i][t] for k, i in zip(coef, c)) for t in range(fan.rank))
                )
            else:
                vectors.append(tuple(rng.randint(-3, 3) for _ in range(fan.rank)))
        want = _least_cone_by_scan(fan, vectors)
        assert _smallest_containing_cone(fan, vectors) == want, vectors
        if want is None:
            seen["none"] += 1
            seen["outside"] += not all(
                any(fan.cone_geom(c).contains(v) for c in fan.max_cones) for v in vectors
            )
        else:
            seen["maximal" if want in maximal else "face"] += 1
    assert seen["face"] and seen["maximal"] and seen["none"], seen
    # only the partial fan has a support short of the whole space
    assert bool(seen["outside"]) == (name == "ci_partial"), seen


def test_base_projection_is_fibration(ctx):
    fan = ctx.ci_fan
    phi = check_compatibility(ctx.fx.matrix("proj_first_two"), fan, ctx.base_fan)
    assert is_fibration(phi)
    kfan, sub = kernel_fan(phi)
    # rays are the last four vertices of the 5d polar, in kernel coordinates
    expect = {v for v in ctx.ci_polar.vertices if v[0] == 0 and v[1] == 0 and v != (0, 12, -1, -1, -1)}
    ambient = {sub.from_coords(r) for r in kfan.rays}
    assert ambient == expect
    assert sub.basis == ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def test_kernel_slice_polytope_reflexive(ctx):
    fan = ctx.ci_fan
    phi = check_compatibility(ctx.fx.matrix("proj_first_two"), fan, ctx.base_fan)
    kfan, sub = kernel_fan(phi)
    slice_poly = LatticePolytope.hull(kfan.rays)
    assert slice_poly.is_reflexive()
    assert set(normal_fan(slice_poly).rays) == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (-1, -4, -6),
    }


def test_base_projection_homogeneous_form(ctx):
    fan = ctx.ci_fan
    phi = check_compatibility(ctx.fx.matrix("proj_first_two"), fan, ctx.base_fan)
    mm = homogeneous_map(phi)
    names = [models.CI_RAY_NAMES[r] for r in fan.rays]
    # codomain ray order: pentagon vertices as fan rays
    cod = phi.codomain.rays
    by_ray = {cod[j]: mm.entries[j] for j in range(len(cod))}
    def monos(entry):
        return {(names[i], e) for i, e in entry}
    assert monos(by_ray[(1, -1)]) == {("y0", 1)}
    assert monos(by_ray[(-1, 1)]) == {("y1", 1)}
    assert monos(by_ray[(-1, -1)]) == {("y2", 1), ("y3", 1)}
    assert monos(by_ray[(1, 0)]) == {("y4", 12)}
    assert monos(by_ray[(0, 1)]) == {("y5", 12)}


def test_beta_fibration_6ray(ctx):
    fan = ctx.hyp_fan_6
    assert fan.nrays() == 6
    phi = check_compatibility(ctx.fx.matrix("fibre_direction"), fan, ctx.line_fan)
    assert is_fibration(phi)
    mm = homogeneous_map(phi)
    names = [models.HYP_RAY_NAMES[r] for r in fan.rays]
    s_entry = {(names[i], e) for i, e in mm.entries[phi.codomain.rays.index((1,))]}
    t_entry = {(names[i], e) for i, e in mm.entries[phi.codomain.rays.index((-1,))]}
    assert s_entry == {("z0", 12)}
    assert t_entry == {("z3", 12)}


def test_beta_not_fibration_without_midpoint(ctx):
    # without the edge midpoint the face fan does not even map cone-wise
    fan = face_fan(ctx.hyp_simplex.polar())
    with pytest.raises(IncompatibleMorphismError, match="no codomain cone contains the image"):
        check_compatibility(ctx.fx.matrix("fibre_direction"), fan, ctx.line_fan)


def _is_fibration_by_facets(phi):
    """Reference verdict: a cone is minimal over its certificate when none of
    its facets shares that certificate, read off each cone's own geometry."""
    k = phi.codomain.rank
    if k == 0:
        return True
    if la.maximal_minor_gcd(la.transpose(phi.matrix)) != 1:
        return False
    by_cert = {}
    for c in phi.domain.all_cones():
        by_cert.setdefault(phi.cert(c), []).append(c)
    for target in phi.codomain.all_cones():
        group = by_cert.get(target)
        if not group:
            return False
        tdim = phi.codomain.cone_geom(target).dim
        inset = set(group)
        for c in group:
            geom = phi.domain.cone_geom(c)
            facets = [
                frozenset(tuple(sorted(c))[i] for i in fs)
                for fs in geom.facet_ray_sets()
            ]
            if geom.dim > 0 and not facets:
                facets = [frozenset()]
            if any(f in inset for f in facets):
                continue
            if geom.dim != tdim:
                return False
            images = [phi.image(phi.domain.rays[i]) for i in c]
            if la.rank(images) != tdim:
                return False
    return True


def blowup_onto_plane():
    # the ray (1, 1) is minimal over the quadrant and has dimension 1
    blowup = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 2), (1, 2)))
    plane = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    return check_compatibility(la.identity(2), blowup, plane)


def doubling_onto_p1():
    # x -> 2x has index 2, so the map is not surjective
    return check_compatibility(((2,), (0,)), cube_fan(2), cube_fan(1))


def line_into_p1():
    # the cone (-1) of P^1 has no preimage
    return check_compatibility(la.identity(1), Fan(1, ((1,),), ((0,),)), cube_fan(1))


@pytest.mark.parametrize("build", [blowup_onto_plane, doubling_onto_p1, line_into_p1])
def test_not_fibration(build):
    phi = build()
    assert not is_fibration(phi)
    assert not _is_fibration_by_facets(phi)


def test_fibration_verdicts_match_facet_reference(ctx):
    phis = [
        check_compatibility(ctx.fx.matrix("proj_first_two"), ctx.ci_fan, ctx.base_fan),
        check_compatibility(ctx.fx.matrix("fibre_direction"), ctx.hyp_fan_6, ctx.line_fan),
        ctx.beta12,
        ctx.transition,
    ]
    for phi in phis:
        assert is_fibration(phi) and _is_fibration_by_facets(phi)


def _random_morphisms(rng, draws):
    """Compatible maps from star subdivisions of (P^1)^n, n = 2 or 3, at up to
    four primitive rays in [-2, 2]^n, onto (P^1)^k by a coordinate projection
    or a {-1, 0, 1} matrix."""
    for _ in range(draws):
        n = rng.choice((2, 3))
        fan = cube_fan(n)
        for _ in range(rng.randint(0, 4)):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                fan = star_subdivide(fan, la.primitive(v))
        k = rng.randint(1, n)
        if rng.random() < 0.5:
            coords = rng.sample(range(n), k)
            matrix = tuple(tuple(int(i == j) for j in coords) for i in range(n))
        else:
            matrix = tuple(tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(n))
        try:
            yield check_compatibility(matrix, fan, cube_fan(k))
        except IncompatibleMorphismError:
            continue


def test_fibration_verdicts_match_facet_reference_on_random_morphisms():
    kinds = {"fibration": 0, "not surjective": 0, "not equidimensional": 0}
    for phi in _random_morphisms(random.Random(5), 150):
        verdict = is_fibration(phi)
        assert verdict == _is_fibration_by_facets(phi), (phi.matrix, phi.domain.rays)
        if verdict:
            kinds["fibration"] += 1
        elif la.maximal_minor_gcd(la.transpose(phi.matrix)) != 1:
            kinds["not surjective"] += 1
        else:
            kinds["not equidimensional"] += 1
    assert all(kinds.values()), kinds


def test_minimal_cones_embed_on_random_morphisms():
    # Lemma B of the fans module: over each certificate, a minimal cone's
    # rays and their images have equal rank
    checked = 0
    for phi in _random_morphisms(random.Random(5), 150):
        by_cert = {}
        for c in phi.domain.all_cones():
            by_cert.setdefault(phi.cert(c), []).append(c)
        for group in by_cert.values():
            for c in group:
                if any(g < c for g in group):
                    continue
                rays = [phi.domain.rays[i] for i in c]
                assert la.rank(rays) == la.rank([phi.image(r) for r in rays])
                checked += 1
    assert checked > 0


def quadrant():
    return Fan(2, ((1, 0), (0, 1)), ((0, 1),))


def split_quadrant():
    """The first quadrant split by (1, 1): an incomplete fan of two cones."""
    return Fan(2, ((1, 0), (1, 1), (0, 1)), ((0, 1), (1, 2)))


def test_star_subdivide_outside_support():
    with pytest.raises(SupportError, match="outside the fan support"):
        star_subdivide(quadrant(), (-1, -1))


def test_subdivide_domain_onto_split_quadrant():
    out = subdivide_domain(la.identity(2), quadrant(), split_quadrant())
    assert out.rays == ((1, 0), (0, 1), (1, 1))
    assert out.max_cones == ((0, 2), (1, 2))


def overlapping_fan():
    """Every wall in two cones, but (0,1) and (0,2) both lie right of the
    wall at (0,1): the cones overlap there and leave the left half-plane bare."""
    return Fan(2, ((0, 1), (1, 0), (2, 1), (0, -1)), ((0, 1), (0, 2), (1, 3), (2, 3)))


@pytest.mark.parametrize(
    "domain, codomain",
    [
        # cone((1,0),(-1,1)) is covered only in part
        (Fan(2, ((1, 0), (-1, 1)), ((0, 1),)), split_quadrant()),
        # two cones of P^2 map to no full-dimensional piece at all
        (p2_fan(), split_quadrant()),
        # the left half-plane, onto cones that count as complete by walls alone
        (Fan(2, ((-1, 0), (0, 1), (0, -1)), ((0, 1), (0, 2))), overlapping_fan()),
    ],
    ids=["partly_covered", "uncovered", "onto_overlapping_cones"],
)
def test_subdivide_domain_outside_codomain_support(domain, codomain):
    with pytest.raises(SupportError, match="does not map into the codomain support"):
        subdivide_domain(la.identity(2), domain, codomain)


@pytest.mark.parametrize("codomain", [p2_fan(), split_quadrant()], ids=["p2", "split_quadrant"])
def test_subdivide_domain_keeps_the_zero_cone(codomain):
    # the origin maps into every fan, so the zero cone is its own only piece
    out = subdivide_domain(la.identity(2), Fan(2, (), [()]), codomain)
    assert out.rays == () and out.max_cones == ((),)


def _subdivide_by_every_pair(matrix, domain, codomain):
    """Reference for subdivide_domain with no Lemma F filter: (rays, maximal
    cones) from one double description per domain cone and codomain cone."""
    back = la.transpose(la.mat(matrix))
    pieces = set()
    for c in domain.max_cones:
        geom = domain.cone_geom(c)
        for t in codomain.max_cones:
            preimage = tuple(la.vecmat(f, back) for f in codomain.cone_geom(t).inequalities)
            rays = extreme_rays(geom.inequalities + preimage, domain.rank)
            if la.rank(rays) == geom.dim:
                pieces.add(rays)
    rays = domain.rays + tuple(sorted({r for p in pieces for r in p} - set(domain.rays)))
    return rays, tuple(sorted(tuple(sorted(rays.index(r) for r in p)) for p in pieces))


def _count_double_descriptions(monkeypatch):
    """The argument lists of every later ``extreme_rays`` call made by fans."""
    calls = []
    monkeypatch.setattr(fans, "extreme_rays", lambda *a: calls.append(a) or extreme_rays(*a))
    return calls


def test_separated_pieces_change_no_subdivision(monkeypatch):
    # Lemma F of the fans module: the skipped pairs change no answer.  The
    # random maps go from their own domains and from the unrefined (P^1)^n,
    # onto (P^1)^k and onto a star subdivision of it that needs new rays
    rng = random.Random(27)
    calls = _count_double_descriptions(monkeypatch)
    pairs = refined = 0
    for phi in _random_morphisms(rng, 100):
        k = phi.codomain.rank
        v = rng.choice([u for u in itertools.product(range(-2, 3), repeat=k) if any(u)])
        v = la.primitive(v)
        for codomain in (phi.codomain, star_subdivide(phi.codomain, v)):
            for domain in (phi.domain, cube_fan(phi.domain.rank)):
                # the reference caches every cone geometry, so that the calls
                # counted below are subdivide_domain's pieces
                want = _subdivide_by_every_pair(phi.matrix, domain, codomain)
                pairs += len(domain.max_cones) * len(codomain.max_cones)
                out = subdivide_domain(phi.matrix, domain, codomain)
                assert (out.rays, out.max_cones) == want, (phi.matrix, domain.rays, v)
                refined += len(out.rays) > len(domain.rays)
    assert refined > 20
    assert 0 < len(calls) < pairs / 2


def test_separated_pieces_skip_most_double_descriptions(ctx, monkeypatch):
    # the two model subdivisions, for ctx.ci_fan and ctx.transition, meet 460
    # (domain cone, codomain cone) pairs; Lemma F leaves at most 160 of them
    jobs = [
        (ctx.fx.matrix("proj_first_two"), ctx.ci_face_fan, ctx.base_fan),
        (ctx.fx.matrix("transition_matrix"), ctx.ci_partial, ctx.hyp_fan_12),
    ]
    for _, domain, codomain in jobs:  # every cone geometry first
        for fan in (domain, codomain):
            for c in fan.max_cones:
                fan.cone_geom(c).inequalities
        assert codomain.is_complete()
    calls = _count_double_descriptions(monkeypatch)
    for job in jobs:
        subdivide_domain(*job)
    assert sum(len(d.max_cones) * len(c.max_cones) for _, d, c in jobs) == 460
    assert len(calls) <= 160


def test_simplicial_facets_match_double_description_on_model_fans(ctx):
    # every cone of the 12-ray 4d fan, the refined 5d face fan and the
    # transition's domain: the simplicial route gives what DD gives
    for fan in (ctx.hyp_fan_12, ctx.ci_fan, ctx.transition.domain):
        nsimplicial = 0
        for c in fan.all_cones()[1:]:
            geom = fan.cone_geom(c)
            eqs = geom.equations
            want = extreme_rays(geom.rays + eqs + tuple(map(la.neg, eqs)), fan.rank)
            assert geom.ambient_ineqs == want, c
            if geom.is_simplicial():
                normals = simplicial_facets(geom.rays)
                assert tuple(sorted(normals)) == want, c
                # in ray order: normal j misses ray j and no other
                for j, f in enumerate(normals):
                    assert [i for i, r in enumerate(geom.rays) if la.dot(r, f)] == [j], c
                nsimplicial += 1
        assert nsimplicial > len(fan.max_cones)


def _assert_incidence_matches_dots(geom):
    """``_facet_masks`` equals a dot-product recomputation, and the faces equal
    ``face_closure`` on those masks plus the apex."""
    masks = tuple(
        sum(1 << i for i, r in enumerate(geom.rays) if la.dot(r, f) == 0)
        for f in geom.ambient_ineqs
    )
    assert geom._facet_masks == masks, geom.rays
    faces = set(face_closure(masks, len(geom.rays)).values()) | {frozenset()}
    want = tuple(sorted(faces, key=lambda s: (len(s), sorted(s))))
    assert geom.all_face_ray_sets() == want, geom.rays


def test_incidence_matches_dot_products_on_acceptance_cones(monkeypatch):
    # every cone geometry that one acceptance run builds
    built = []
    init = ConeGeom.__init__
    monkeypatch.setattr(ConeGeom, "__init__", lambda g, *a: init(g, *a) or built.append(g))
    assert all(r.passed for r in acceptance.run())
    monkeypatch.undo()
    assert len(built) > 100
    assert any(g.is_simplicial() for g in built) and not all(g.is_simplicial() for g in built)
    for g in built:
        _assert_incidence_matches_dots(g)


def test_incidence_matches_dot_products_on_random_cones():
    # pointed by a positive functional w; some with a repeated ray, and some
    # lower-dimensional by a zero last coordinate
    rng = random.Random(29)
    kinds = {"zero": 0, "ray": 0, "repeat": 0, "simplicial": 0, "lower simplicial": 0, "other": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        w = [rng.randint(1, 3) for _ in range(n)]
        rays = []
        for _ in range(rng.choice((0, 1, rng.randint(2, n + 3)))):
            r = tuple(rng.randint(-3, 3) for _ in range(n))
            if rng.random() < 0.3:
                r = r[:-1] + (0,)
            if la.dot(r, w) > 0:
                rays.append(la.primitive(r))
        if rays and rng.random() < 0.2:
            rays.insert(rng.randrange(len(rays) + 1), rng.choice(rays))
        geom = ConeGeom(rays, n)
        _assert_incidence_matches_dots(geom)
        if len(set(rays)) < len(rays):
            kinds["repeat"] += 1
        elif len(rays) < 2:
            kinds["ray" if rays else "zero"] += 1
        elif geom.is_simplicial():
            kinds["simplicial" if geom.dim == n else "lower simplicial"] += 1
        else:
            kinds["other"] += 1
    assert all(kinds.values()), kinds


def _guarded_cones(ctx):
    """Fresh geometries of every cone of the refined 5d face fan and of the
    transition's domain."""
    return [
        ConeGeom([fan.rays[i] for i in sorted(c)], fan.rank)
        for fan in (ctx.ci_fan, ctx.transition.domain)
        for c in fan.all_cones()
    ]


def test_incidence_takes_no_dot_product(ctx, monkeypatch):
    # the incidence comes from the computation that finds the facets: fans
    # takes no dot product for it, and only non-simplicial cones run face_closure
    geoms = _guarded_cones(ctx)
    for g in geoms:
        g.equations
    dots, closures = [], []
    dot = la.dot
    monkeypatch.setattr(
        la,
        "dot",
        lambda u, v: dots.append(sys._getframe(1).f_globals["__name__"]) or dot(u, v),
    )
    monkeypatch.setattr(fans, "face_closure", lambda *a: closures.append(a) or face_closure(*a))
    for g in geoms:
        g._facet_masks
        g.all_face_ray_sets()
    assert "toricfib.fans" not in dots
    nonsimplicial = sum(not g.is_simplicial() for g in geoms)
    assert 0 < len(closures) == nonsimplicial < len(geoms)


def test_certificates_test_each_ray_once_per_codomain_cone(ctx, monkeypatch):
    # a fresh transition morphism certifies and decides the fibration with at
    # most one containment test per domain ray and maximal codomain cone
    t = ctx.transition
    for fan in (t.domain, t.codomain):
        for c in fan.all_cones():
            fan.cone_geom(c).inequalities
    bound = t.domain.nrays() * t.codomain.ngenerating_cones()
    tests = {"contains": 0, "_facets_on": 0}
    for name in tests:
        method = getattr(ConeGeom, name)

        def spy(g, v, method=method, name=name):
            tests[name] += 1
            return method(g, v)

        monkeypatch.setattr(ConeGeom, name, spy)
    phi = check_compatibility(t.matrix, t.domain, t.codomain)
    assert is_fibration(phi)
    assert tests["contains"] <= tests["_facets_on"] <= bound, (tests, bound)


def _assert_certificates_match_scan(phi):
    for c in phi.domain.all_cones():
        want = _least_cone_by_scan(phi.codomain, [phi.image(phi.domain.rays[i]) for i in c])
        assert phi.cert(c) == want, (phi.matrix, sorted(c))


def test_certificates_match_scan_on_model_morphisms(ctx):
    phis = [
        check_compatibility(ctx.fx.matrix("proj_first_two"), ctx.ci_fan, ctx.base_fan),
        check_compatibility(ctx.fx.matrix("fibre_direction"), ctx.hyp_fan_6, ctx.line_fan),
        ctx.beta12,
        ctx.transition,
    ]
    for phi in phis:
        _assert_certificates_match_scan(phi)


def test_certificates_match_scan_on_random_morphisms():
    count = 0
    for phi in _random_morphisms(random.Random(29), 60):
        _assert_certificates_match_scan(phi)
        count += 1
    assert count > 20


def test_image_outside_the_codomain_support_names_the_cone():
    # the identity from the fan of P^2 onto the first quadrant: the first
    # maximal cone that leaves the quadrant is named in the error
    fan = p2_fan()
    with pytest.raises(IncompatibleMorphismError) as err:
        check_compatibility(la.identity(2), fan, quadrant())
    assert err.value.context == {"cone": [[1, 0], [-1, -1]]}
    phi = check_compatibility(la.identity(2), Fan(2, fan.rays[:2], [(0, 1)]), quadrant())
    assert phi.cert({0}) == {0} and phi.cert(()) == frozenset()


def test_hyp_12ray_triangle_charts_smooth(ctx):
    fan = ctx.hyp_fan_12
    assert fan.nrays() == 12
    tri = models.HYP_TRIANGLE_INTERIOR
    idx = fan.rays.index(tri)
    for c in fan.max_cones:
        if idx in c:
            assert fan.cone_geom(c).is_smooth()


def test_triangle_cone_not_smooth_and_weights():
    # the 3d cone on (-1,-1,2,-1), (-1,11,-1,-1), (-1,-1,-1,1) is singular;
    # its weights over the interior point are a permutation of (1,2,3)
    from toricfib.fans import ConeGeom

    rays = ((-1, -1, 2, -1), (-1, 11, -1, -1), (-1, -1, -1, 1))
    geom = ConeGeom(rays, 4)
    assert not geom.is_smooth()
    tri = models.HYP_TRIANGLE_INTERIOR
    sols = []
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                lhs = [a * rays[0][i] + b * rays[1][i] + c * rays[2][i] for i in range(4)]
                if lhs == [(a + b + c) * t for t in tri]:
                    sols.append((a, b, c))
    assert sorted(sols[0]) == [1, 2, 3]


GRID = list(itertools.product(range(-2, 3), repeat=3))


def test_cone_contains_matches_generator_reference():
    r1, r2 = (1, 0, 1), (0, 1, 1)
    geom = ConeGeom((r1, r2), 3)
    for v in GRID:
        # r1, r2 restrict to the unit vectors on the first two coordinates
        a, b = v[0], v[1]
        # a*r1 + b*r2 = (a, b, a + b)
        expected = a >= 0 and b >= 0 and v[2] == a + b
        assert geom.contains(v) == expected, v


def _span_coords(rays, v):
    """Coefficients c with sum c_i rays_i == v, by Fraction elimination over
    the independent rays, or None when v is outside their span."""
    n = len(v)
    rows = [[Fraction(r[i]) for r in rays] + [Fraction(v[i])] for i in range(n)]
    pivots = []
    for col in range(len(rays) + 1):
        p = next((i for i in range(len(pivots), n) if rows[i][col]), None)
        if p is None:
            continue
        if col == len(rays):
            return None
        top = len(pivots)
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(n):
            if i != top and rows[i][col]:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    return [rows[pivots.index(j)][-1] for j in range(len(rays))]


@pytest.mark.parametrize(
    "rays",
    [
        ((1, 1, 0), (1, -1, 0)),
        ((1, 1, 0, 1), (1, -1, 0, 1), (0, 1, 2, 1)),
    ],
)
def test_lower_dim_cone_rays_not_generating_span_lattice(rays):
    # the rays generate a sublattice of index > 1 in the saturated span, so
    # lattice points such as (1, 0, 0) have non-integer ray coefficients
    n = len(rays[0])
    geom = ConeGeom(rays, n)
    assert geom.dim == len(rays)
    assert all(la.dot(f, e) == 0 for f in geom.ambient_ineqs for e in geom.equations)
    for v in itertools.product(range(-2, 3), repeat=n):
        c = _span_coords(rays, v)
        expected = c is not None and all(x >= 0 for x in c)
        assert geom.contains(v) == expected, v


def test_extreme_generators_one_dimensional():
    # a ray's cone has one facet, on which the ray does not lie
    ray = ConeGeom(((1, -2, 0),), 3)
    assert ray.dim == 1 and ray._facet_masks == (0,)
    assert extreme_generators(ray._facet_masks, 1) == (0,)
    assert _extreme_generators([(2, -4, 0), (1, -2, 0), (3, -6, 0)]) == ((1, -2, 0),)
    assert _extreme_generators([(-1, 2, 0)]) == ((-1, 2, 0),)
    with pytest.raises(DegenerateInputError, match="strictly convex"):
        _extreme_generators([(1, -2, 0), (-2, 4, 0)])


def test_empty_cone_contains_only_origin():
    geom = ConeGeom((), 3)
    assert geom.dim == 0
    assert [v for v in GRID if geom.contains(v)] == [(0, 0, 0)]


def test_star_subdivide_p3_at_wall_ray():
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    fan = Fan(3, rays, itertools.combinations(range(4), 3))
    out = star_subdivide(fan, (1, 1, 0))
    assert out.ngenerating_cones() == 6
    assert out.is_complete()


def test_cone_over_square_faces():
    geom = ConeGeom(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), 3)
    assert len(geom.all_face_ray_sets()) == 10
    assert len(geom.facet_ray_sets()) == 4


def test_star_subdivide_existing_ray_noop():
    fan = p2_fan()
    assert star_subdivide(fan, (1, 0)) is fan


def test_star_subdivide_smooth_split():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    out = star_subdivide(fan, (1, 1))
    assert out.nrays() == 3
    assert out.ngenerating_cones() == 2
    assert out.is_smooth()


def test_p2_fan_flags():
    fan = p2_fan()
    assert all(fan.cone_geom(c).is_simplicial() for c in fan.max_cones)
    assert fan.is_smooth() and fan.is_complete()


def test_ci_fan_crepant(ctx):
    # every ray is a boundary lattice point of the 5d polar
    _, boundary = ctx.ci_polar.lattice_points()
    assert set(ctx.ci_fan.rays) <= set(boundary)


def test_mori_p2():
    assert mori_cone(p2_fan()) == ((1, 1, 1, -3),)


def test_mori_p1xp1():
    gens = set(mori_cone(cube_fan(2)))
    assert gens == {(1, 1, 0, 0, -2), (0, 0, 1, 1, -2)}


@pytest.mark.parametrize("a", [1, 2, 3])
def test_mori_hirzebruch(a):
    # rays u1..u4 of F_a; the wall at u4 gives the relation u1 + u3 + a*u4 = 0,
    # which is (1, -a, 1, 0) + a * (0, 1, 0, 1): a wall relation that is not
    # extreme
    fan = Fan(2, ((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert fan.is_complete()
    assert mori_cone(fan) == ((0, 1, 0, 1, -2), (1, -a, 1, 0, a - 2))


def test_mori_rejects_cones_on_one_side_of_a_wall():
    fan = overlapping_fan()
    assert not fan.is_complete()
    with pytest.raises(DegenerateInputError, match="requires a complete fan"):
        mori_cone(fan)


@pytest.mark.parametrize(
    "fan",
    [
        overlapping_fan(),
        # every wall in two cones on opposite sides, but the five cones wind
        # twice around the origin: only the covering degree rejects it
        Fan(
            2,
            ((1, 0), (1, 2), (-1, 1), (-1, -1), (1, -2)),
            ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)),
        ),
        # the four quadrants plus three cones inside the third that fold back:
        # the walls at (-2,-1) and (-1,-2) each lie in two of them on one
        # side, so every wall pairs by count and only the side test rejects it
        Fan(
            2,
            ((1, 0), (0, 1), (-1, 0), (0, -1), (-2, -1), (-1, -1), (-1, -2)),
            ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)),
        ),
    ],
    ids=["overlap", "pentagram", "fold"],
)
def test_non_tilings_are_not_complete(fan):
    assert not fan.is_complete()
    with pytest.raises(DegenerateInputError, match="requires a complete fan"):
        mori_cone(fan)


def _polytope_fan(build, name, polar):
    """The fan ``build`` makes of a model polytope, or of its polar."""

    def fan(ctx):
        p = getattr(ctx, name)
        return build(p.polar() if polar else p)

    return fan


@pytest.mark.parametrize(
    "fan, complete",
    [
        *(
            pytest.param(attrgetter(a), True, id=a)
            for a in (
                "ci_face_fan", "ci_fan", "hyp_fan_6", "hyp_fan_12", "base_fan", "line_fan", "mirror_fan"
            )
        ),
        *(
            pytest.param(
                _polytope_fan(f, p, polar), True, id=f"{f.__name__}({p}{'.polar()' * polar})"
            )
            for p in ("ci_polar", "ci_base", "hyp_simplex", "k3_simplex", "base_pentagon")
            for polar in (False, True)
            for f in (face_fan, normal_fan)
        ),
        pytest.param(attrgetter("ci_partial"), False, id="ci_partial"),
        pytest.param(attrgetter("transition.domain"), False, id="transition.domain"),
    ],
)
def test_model_fans_completeness(ctx, fan, complete):
    assert fan(ctx).is_complete() == complete


def test_mori_requires_complete():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(DegenerateInputError):
        mori_cone(fan)


def _transition_small(ctx):
    """Fibration from the partial 5d fan onto the 7-ray 4d fan."""
    matrix = ctx.fx.matrix("transition_matrix")
    codomain = star_subdivide(ctx.hyp_fan_6, models.HYP_TRIANGLE_INTERIOR)
    domain = subdivide_domain(matrix, ctx.ci_partial, codomain)
    return check_compatibility(matrix, domain, codomain)


def test_transition_morphism_small(ctx):
    phi = _transition_small(ctx)
    assert is_fibration(phi)
    doms = set(phi.domain.rays)
    names = {models.CI_RAY_NAMES.get(r) for r in doms}
    assert names == {"y2", "y3", "y4", "y5", "y6", "y7", "y8", "y9", "y752"}
    kfan, sub = kernel_fan(phi)
    assert [sub.from_coords(r) for r in kfan.rays] == [(-1, -1, 0, 0, 0)]
    assert sub.basis == ((1, 1, 0, 0, 0),)


def test_transition_ray_images(ctx):
    # images of the ten 5d rays under the transition map are either zero or
    # nine lattice points of the 4d polar, two of them pinned by coordinates
    matrix = ctx.fx.matrix("transition_matrix")
    images = set()
    for r in ctx.ci_fan.rays:
        w = la.vecmat(r, matrix)
        if not la.is_zero(w):
            images.add(la.primitive(w))
    assert len(images) == 9
    _, boundary = ctx.hyp_simplex.polar().lattice_points()
    assert images <= set(boundary)
    assert models.HYP_EDGE_MIDPOINT in images
    assert models.HYP_TRIANGLE_INTERIOR in images
    assert set(ctx.hyp_simplex.polar().vertices) <= images


def test_transition_morphism_resolved(ctx):
    phi = ctx.transition
    assert phi.domain.nrays() == 15
    assert is_fibration(phi)
    expected_rays = {
        (-1, -1, 0, 0, 0),
        (-1, -1, 2, 0, 0),
        (12, 0, -1, -1, -1),
        (0, 12, -1, -1, -1),
        (0, 0, -1, -1, -1),
        (0, 0, 11, -1, -1),
        (0, 0, -1, 2, -1),
        (0, 0, -1, -1, 1),
        (1, 0, 10, -1, -1),
        (0, 0, 3, 1, -1),
        (0, 0, 7, 0, -1),
        (0, 1, 10, -1, -1),
        (0, 0, 1, 0, 0),
        (0, 0, 5, -1, 0),
        (-1, -1, 1, 0, 0),
    }
    assert set(phi.domain.rays) == expected_rays
    # every domain ray is a boundary point of the 5d polar (crepant openness)
    _, boundary = ctx.ci_polar.lattice_points()
    assert set(phi.domain.rays) <= set(boundary)
    assert all(phi.domain.cone_geom(c).is_simplicial() for c in phi.domain.max_cones)
    kfan, sub = kernel_fan(phi)
    assert [sub.from_coords(r) for r in kfan.rays] == [(-1, -1, 0, 0, 0)]
    assert sub.basis == ((1, 1, 0, 0, 0),)


def test_transition_homogeneous_map_resolved(ctx):
    phi = ctx.transition
    mm = homogeneous_map(phi)
    dom_names = [models.CI_RAY_NAMES[r] for r in phi.domain.rays]
    cod = phi.codomain.rays
    def monos(ray):
        return {(dom_names[i], e) for i, e in mm.entries[cod.index(ray)]}
    assert monos((23, -1, -1, -1)) == {("y4", 1)}
    assert monos((-1, -1, 2, -1)) == {("y8", 1)}
    assert monos((-1, 11, -1, -1)) == {("y7", 1)}
    assert monos((-1, -1, -1, -1)) == {("y5", 1)}
    assert monos((-1, -1, -1, 1)) == {("y9", 1)}
    assert monos(models.HYP_EDGE_MIDPOINT) == {("y6", 1)}
    assert monos(models.HYP_BELOW_SLICE) == {("y109", 1)}
    assert monos(models.HYP_ABOVE_SLICE) == {("y32", 1)}
    assert monos(models.HYP_TRIANGLE_INTERIOR) == {("y3", 2), ("y745", 1), ("y752", 1)}
    assert monos(models.HYP_TRIANGLE_EDGE_POINTS[0]) == {("y469", 1)}
    assert monos(models.HYP_TRIANGLE_EDGE_POINTS[1]) == {("y630", 1)}
    assert monos(models.HYP_TRIANGLE_EDGE_POINTS[2]) == {("y667", 1)}


def test_resolved_domain_edge_midpoint_charts_smooth(ctx):
    phi = ctx.transition
    fan = phi.domain
    idx = fan.rays.index(models.CI_EDGE_MIDPOINT)
    touching = [c for c in fan.max_cones if idx in c]
    assert touching
    for c in touching:
        assert fan.cone_geom(c).is_smooth()


def test_chart_disjointness(ctx):
    phi = ctx.transition
    fan = phi.domain
    def never_together(coords_a, coords_b):
        ia = fan.rays.index(coords_a)
        ib = fan.rays.index(coords_b)
        return not any(ia in c and ib in c for c in fan.max_cones)
    y2 = (-1, -1, 0, 0, 0)
    y3 = (-1, -1, 2, 0, 0)
    y6 = (0, 0, -1, -1, -1)
    y745 = (-1, -1, 1, 0, 0)
    y752 = (0, 0, 1, 0, 0)
    assert never_together(y2, y752)
    assert never_together(y2, y3)
    assert never_together(y3, y6)
    assert never_together(y745, y752)


def test_monomial_map_matches_lattice_map_on_torus(ctx):
    import random

    random.seed(3)
    phi = _transition_small(ctx)
    mm = homogeneous_map(phi)
    for _ in range(20):
        mprime = tuple(random.randint(-3, 3) for _ in range(4))
        for i, r in enumerate(phi.domain.rays):
            lhs = la.dot(la.vecmat(r, phi.matrix), mprime)
            rhs = sum(
                e * la.dot(phi.codomain.rays[j], mprime)
                for j, entry in enumerate(mm.entries)
                for (ii, e) in entry
                if ii == i
            )
            assert lhs == rhs
