import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from toricfib import exactlinalg as la
from toricfib import polytope
from toricfib.dd import double_description, extreme_generators, face_closure
from toricfib.errors import (
    DegenerateInputError,
    NotFullDimensionalError,
    NotReflexiveError,
    PolarUndefinedError,
)
from toricfib.polytope import LatticePolytope, enumerate_lattice_points

# running polytopes
CI_POLAR_VERTICES = [
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
]
HYP_SIMPLEX_VERTICES = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, -2, -8, -12),
]
K3_SIMPLEX_VERTICES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -4, -6)]


def brute_force_points(vertices):
    """Rational-arithmetic membership by facet-free LP: use hull facets instead.

    For rank <= 3 we enumerate the bounding box and keep points inside the
    hull, testing membership with exact barycentric checks via facets from an
    independently computed hull (itertools over vertex subsets).
    """
    dim = len(vertices[0])
    lows = [min(v[i] for v in vertices) for i in range(dim)]
    highs = [max(v[i] for v in vertices) for i in range(dim)]
    # facets by brute force: a supporting hyperplane through dim vertices
    cands = set()
    for sub in itertools.combinations(vertices, dim):
        m = la.mat(sub)
        kern = la.right_kernel(la.mat([la.sub(r, sub[0]) for r in sub[1:]])) if dim > 1 else ((1,),)
        for n in kern:
            if la.is_zero(n):
                continue
            vals = [la.dot(v, n) for v in vertices]
            c = la.dot(sub[0], n)
            if all(v >= c for v in vals):
                cands.add((la.primitive(n), c))
            if all(v <= c for v in vals):
                cands.add((la.primitive(la.neg(n)), -c))
    pts = []
    for p in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
        if all(la.dot(p, n) >= c for n, c in cands):
            pts.append(p)
    return sorted(pts)


def test_hull_ci_polar():
    p = LatticePolytope.hull(CI_POLAR_VERTICES)
    assert p.rank == 5
    assert p.vertices == tuple(sorted(la.mat(CI_POLAR_VERTICES)))
    assert p.is_reflexive()
    assert len(p.facets) == 14


def test_hull_simplex():
    p = LatticePolytope.hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -4, -6)])
    assert len(p.vertices) == 4
    assert p.is_reflexive()


def test_hull_not_full_dimensional():
    with pytest.raises(NotFullDimensionalError) as ei:
        LatticePolytope.hull([(1, 0), (-1, 0)])
    assert ei.value.context["span_basis"] == [[1, 0]]


def _affine_span(points):
    """Reference: base point and saturated basis of the span of differences."""
    base = points[0]
    diffs = [la.sub(p, base) for p in points[1:] if p != base]
    return base, la.saturation(diffs) if diffs else ()


@pytest.mark.parametrize(
    "points",
    [
        [(1, 0), (-1, 0)],
        [(2, 2, 0), (0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 2, 0)],
        [(3, 1, 4, 1)] * 3,
        [(0, 0, 0, 0), (2, 4, 6, 8), (1, 2, 3, 4), (0, 0, 1, 1), (2, 4, 7, 9)],
    ],
)
def test_hull_not_full_dimensional_payload(points):
    with pytest.raises(NotFullDimensionalError) as ei:
        LatticePolytope.hull(points)
    base, basis = _affine_span(points)
    assert ei.value.context == {
        "base": list(base),
        "span_basis": [list(b) for b in basis],
    }


@pytest.mark.parametrize(
    "name", ["ci_polar", "hyp_simplex", "k3_simplex", "base_pentagon"]
)
def test_face_dims_match_affine_span(ctx, name):
    for p in (getattr(ctx, name), getattr(ctx, name).polar()):
        faces = p._face_data
        assert set(faces) == set(range(p.rank + 1))
        for dim, fs in faces.items():
            for f in fs:
                verts = [p.vertices[i] for i in sorted(f.vertex_indices)]
                assert f.dim == dim == len(_affine_span(verts)[1])


def _rank_rule_vertices(points, facets, dim):
    """Reference vertex rule: a point whose tight facet normals have full rank."""
    verts = set()
    for p in points:
        tight = [n for n, c in facets if la.dot(p, n) == -c]
        if len(tight) >= dim and la.rank(tight) == dim:
            verts.add(p)
    return tuple(sorted(verts))


def _incidence_rule_vertices(points, facets, dim):
    """The vertices that ``dd.extreme_generators`` reads off the per-facet
    masks of the distinct homogenized points."""
    pts = sorted(set(points))
    masks = [sum(1 << i for i, p in enumerate(pts) if la.dot(p, n) == -c) for n, c in facets]
    return tuple(pts[i] for i in extreme_generators(masks, len(pts)))


def _cross_polytope_with_edge_midpoints(dim):
    """2 * (the dim-cross-polytope), so that its edge midpoints e_i +- e_j are
    lattice points.  In dim 4 each midpoint is tight on 4 facets."""
    verts = [tuple(2 * s * (i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
    edges = [(u, v) for u, v in itertools.combinations(verts, 2) if u != la.neg(v)]
    return verts, [tuple((a + b) // 2 for a, b in zip(u, v)) for u, v in edges]


def test_vertex_rule_rejects_cross_polytope_edge_midpoints():
    verts, mids = _cross_polytope_with_edge_midpoints(4)
    points = mids + verts + verts[:3]
    p = LatticePolytope.hull(points)
    assert len(p.facets) == 16
    for m in mids:
        assert sum(1 for n, c in p.facets if la.dot(m, n) == -c) == 4
    assert p.vertices == tuple(sorted(verts))
    assert _incidence_rule_vertices(points, p.facets, 4) == p.vertices
    assert _rank_rule_vertices(points, p.facets, 4) == p.vertices


@st.composite
def point_sets(draw):
    dim = draw(st.integers(2, 4))
    pts = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim + 1, max_size=12)
    )
    # duplicates, and the non-simple octahedron or cross-polytope with its
    # edge midpoints among the points
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    if draw(st.booleans()):
        verts, mids = _cross_polytope_with_edge_midpoints(dim)
        pts += draw(st.lists(st.sampled_from(verts + mids), max_size=2 * dim + 4))
    return pts


@seed(6433)
@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_vertex_rule_matches_rank_rule(points):
    dim = len(points[0])
    try:
        p = LatticePolytope.hull(points)
    except NotFullDimensionalError:
        assume(False)
    want = _rank_rule_vertices(points, p.facets, dim)
    assert _incidence_rule_vertices(points, p.facets, dim) == want
    assert p.vertices == want


def _criterion_17_point_sets():
    """The point sets that criterion 17 draws, in its order: five points of
    [-2, 2]^2 per attempt from random.Random(1234), until 30 hulls are
    reflexive or 4000 attempts are made."""
    rng = random.Random(1234)
    found, attempts = 0, 0
    while found < 30 and attempts < 4000:
        attempts += 1
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
        try:
            p = LatticePolytope.hull(pts)
        except NotFullDimensionalError as e:
            yield pts, e
            continue
        found += p.is_reflexive()
        yield pts, p


def test_hull_on_criterion_17_point_sets():
    """Each hull's vertices are the rank rule's; the masks it reads hold, per
    facet, the points on it by dot product; every facet is a supporting line
    through two of the points, one per vertex; sets that do not span raise
    with their affine span."""
    sets = list(_criterion_17_point_sets())
    spans = reflexive = 0
    for points, p in sets:
        pts = tuple(dict.fromkeys(points))
        if isinstance(p, NotFullDimensionalError):
            spans += 1
            base, basis = p.context["base"], p.context["span_basis"]
            assert tuple(base) == pts[0] and len(basis) < 2
            assert la.rank(basis + [la.sub(q, base) for q in pts]) == len(basis)
            continue
        reflexive += p.is_reflexive()
        assert p.vertices == _rank_rule_vertices(points, p.facets, 2)
        rays, masks = double_description(tuple((1,) + q for q in pts), 3)
        assert sorted((f[1:], f[0]) for f in rays) == list(p.facets)
        for f, m in zip(rays, masks):
            on = [i for i, q in enumerate(pts) if f[0] + la.dot(f[1:], q) == 0]
            assert m == sum(1 << i for i in on), (points, f)
            assert la.rank([la.sub(pts[i], pts[on[0]]) for i in on]) == 1
            assert all(f[0] + la.dot(f[1:], q) >= 0 for q in pts)
        assert len(p.facets) == len(p.vertices)
    assert (len(sets), spans, reflexive) == (1511, 10, 30)


def _faces_by_subsets(masks, ngens):
    """Reference for dd.face_closure: every distinct nonempty AND of a subset
    of the facet masks (the empty subset gives every generator), keyed by the
    full set of facets whose masks contain it."""
    faces = {}
    for k in range(len(masks) + 1):
        for subset in itertools.combinations(masks, k):
            gens = (1 << ngens) - 1
            for m in subset:
                gens &= m
            if gens:
                tight = frozenset(j for j, m in enumerate(masks) if m & gens == gens)
                faces[tight] = frozenset(i for i in range(ngens) if gens >> i & 1)
    return faces


def test_face_closure_matches_subset_reference():
    """On criterion 17's hulls, both on their vertex masks and on the double
    description's masks of all their points, and on cones with no facet."""
    hulls = 0
    for points, p in _criterion_17_point_sets():
        if isinstance(p, NotFullDimensionalError):
            continue
        hulls += 1
        faces = face_closure(p._facet_vertices, len(p.vertices))
        assert faces == _faces_by_subsets(p._facet_vertices, len(p.vertices)), points
        assert len(faces) == 2 * len(p.vertices) + 1  # vertices, edges, the polygon
        pts = tuple(dict.fromkeys(points))
        _, masks = double_description(tuple((1,) + q for q in pts), 3)
        assert face_closure(masks, len(pts)) == _faces_by_subsets(masks, len(pts)), points
    assert hulls == 1501
    assert face_closure((), 0) == {}
    for n in range(1, 4):
        whole = {frozenset(): frozenset(range(n))}  # no facet: the one face is the cone
        assert face_closure((), n) == _faces_by_subsets((), n) == whole


def test_hull_idempotent():
    p = LatticePolytope.hull(HYP_SIMPLEX_VERTICES)
    q = LatticePolytope.hull(p.vertices)
    assert p == q


def test_hull_interior_points_dropped():
    p = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0), (1, 0)])
    assert p.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_polar_hyp_simplex():
    p = LatticePolytope.hull(HYP_SIMVERTS if (HYP_SIMVERTS := HYP_SIMPLEX_VERTICES) else [])
    q = p.polar()
    expected = sorted(
        la.mat(
            [
                (23, -1, -1, -1),
                (-1, -1, 2, -1),
                (-1, 11, -1, -1),
                (-1, -1, -1, -1),
                (-1, -1, -1, 1),
            ]
        )
    )
    assert list(q.vertices) == expected
    assert q.polar() == p


def test_polar_involution_ci():
    p = LatticePolytope.hull(CI_POLAR_VERTICES)
    assert p.polar() is p.polar()
    # the memo is per polytope: the polar's polar is recomputed, not self
    assert p.polar().polar() == p and p.polar().polar() is not p


def test_polar_not_reflexive():
    p = LatticePolytope.hull([(2, 0), (0, 2), (-2, 0), (0, -2)])
    with pytest.raises(NotReflexiveError) as ei:
        p.polar()
    assert any("1/2" in v for vs in ei.value.context["fractional_vertices"] for v in vs)


def test_polar_undefined():
    p = LatticePolytope.hull([(0, 0), (1, 0), (0, 1)])
    assert not p.is_reflexive()
    with pytest.raises(PolarUndefinedError):
        p.polar()


def test_lattice_points_k3_simplex():
    p = LatticePolytope.hull(K3_SIMPLEX_VERTICES)
    interior, boundary = p.lattice_points()
    assert interior == ((0, 0, 0),)
    assert p.is_reflexive()
    expected = brute_force_points(K3_SIMPLEX_VERTICES)
    assert sorted(interior + boundary) == expected


def test_lattice_points_brute_force_rank2():
    random.seed(7)
    for _ in range(30):
        pts = [
            (random.randint(-3, 3), random.randint(-3, 3)) for _ in range(6)
        ]
        try:
            p = LatticePolytope.hull(pts)
        except NotFullDimensionalError:
            continue
        interior, boundary = p.lattice_points()
        assert sorted(interior + boundary) == brute_force_points(list(p.vertices))


@st.composite
def boxes_with_inequalities(draw):
    dim = draw(st.integers(1, 4))
    lows = draw(st.lists(st.integers(-3, 2), min_size=dim, max_size=dim))
    # a side of -1 or 0 points leaves the box empty
    highs = [lo + draw(st.integers(-1, 5)) for lo in lows]
    ineqs = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-4, 4)] * dim), st.integers(-6, 10)
            ),
            max_size=5,
        )
    )
    # small blocks make the enumerator loop over leading coordinates
    block = draw(st.sampled_from([1, 6, 40, polytope._BLOCK_ENTRIES]))
    return ineqs, lows, highs, block


@settings(max_examples=300, deadline=None)
@given(boxes_with_inequalities())
def test_enumerate_lattice_points_matches_product_filter(args):
    ineqs, lows, highs, block = args
    box = itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)])
    want = [p for p in box if all(la.dot(p, n) >= -c for n, c in ineqs)]
    with mock.patch.object(polytope, "_BLOCK_ENTRIES", block):
        got = enumerate_lattice_points(ineqs, lows, highs)
    assert got == want  # the same points in the same (lexicographic) order
    assert all(type(x) is int for p in got for x in p)


@pytest.mark.parametrize("block", [1, 3, polytope._BLOCK_ENTRIES])
def test_enumerate_lattice_points_int64_bound(block):
    # x0 in [0, 1], x1 in [-1, 1]: the bound is a + b + |c| for n = (a, b)
    a, b = 2**62, 2**62 - 2
    with mock.patch.object(polytope, "_BLOCK_ENTRIES", block):
        assert enumerate_lattice_points([((a, b), 1)], [0, -1], [1, 1]) == [
            (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)
        ]
        assert enumerate_lattice_points([((-a, -b), 1)], [0, -1], [1, 1]) == [
            (0, -1), (0, 0)
        ]
    with pytest.raises(DegenerateInputError):
        enumerate_lattice_points([((a, b), 2)], [0, -1], [1, 1])
    with pytest.raises(DegenerateInputError):
        enumerate_lattice_points([((a, b + 1), 1)], [0, -1], [1, 1])


@pytest.mark.parametrize(
    "name", ["ci_polar", "hyp_simplex", "k3_simplex", "base_pentagon"]
)
def test_points_tight_facets(ctx, name):
    for p in (getattr(ctx, name), getattr(ctx, name).polar()):
        interior, boundary, masks = p._points_data
        assert list(interior) == sorted(interior)
        assert list(boundary) == sorted(boundary)
        assert set(masks) == set(interior) | set(boundary)
        for q, mask in masks.items():
            assert mask == {i for i, (n, c) in enumerate(p.facets) if la.dot(q, n) == -c}
            assert bool(mask) == (q in boundary)


def test_boundary_contains_paper_points():
    hyp_polar = LatticePolytope.hull(HYP_SIMPLEX_VERTICES).polar()
    _, boundary = hyp_polar.lattice_points()
    assert (11, -1, -1, -1) in boundary
    ci_polar = LatticePolytope.hull(CI_POLAR_VERTICES)
    _, boundary5 = ci_polar.lattice_points()
    assert (0, 0, 1, 0, 0) in boundary5
    assert (-1, -1, 1, 0, 0) in boundary5


def test_faces_simplex_counts():
    p = LatticePolytope.hull(K3_SIMPLEX_VERTICES)
    assert len(p.faces(0)) == 4
    assert len(p.faces(1)) == 6
    assert len(p.faces(2)) == 4


def test_face_count_duality():
    p = LatticePolytope.hull(HYP_SIMPLEX_VERTICES)
    q = p.polar()
    for d in range(p.rank):
        assert len(p.faces(d)) == len(q.faces(p.rank - 1 - d))


def test_dual_face_involution_and_dims():
    p = LatticePolytope.hull(HYP_SIMPLEX_VERTICES)
    q = p.polar()
    for d in range(p.rank):
        for f in p.faces(d):
            g = p.dual_face(f)
            assert f.dim + g.dim == p.rank - 1
            back = q.dual_face(g)
            assert back.vertex_indices == f.vertex_indices


def test_skeleton_square():
    p = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    g = p.skeleton()
    assert len(g.nodes) == 8
    assert len(g.edges) == 8
    comps = g.subgraph_components(lambda e: True)
    assert len(comps) == 1 and len(comps[0]) == 8


def test_skeleton_k3_simplex():
    p = LatticePolytope.hull(K3_SIMPLEX_VERTICES)
    g = p.skeleton()
    _, boundary = p.lattice_points()
    assert g.nodes == boundary
    # every edge of the graph joins points on a common 1-face
    for e in g.edges:
        a, b = sorted(e)
        assert g.nodes[a] != g.nodes[b]
