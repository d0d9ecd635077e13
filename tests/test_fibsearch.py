import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfib import exactlinalg as la
from toricfib import fibsearch
from toricfib.cy import vertices_from_inequalities
from toricfib.errors import DegenerateInputError, NotReflexiveError
from toricfib.fibsearch import (
    _edge_lines,
    _generating_points,
    _integral_slices,
    _raw_candidates,
    _span_survivors,
    lattice_equivalent,
    search_fibrations,
)
from toricfib.polytope import LatticePolytope

CUBE4 = list(itertools.product((-1, 1), repeat=4))


def test_square_axis_slices():
    square = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    cands = search_fibrations(square, 1)
    bases = {c.sublattice.basis for c in cands}
    assert bases == {((1, 0),), ((0, 1),)}
    for c in cands:
        assert c.slice_polytope.vertices == ((-1,), (1,))
        assert c.projection.vertices == ((-1,), (1,))
        assert c.balanced


def test_square_brute_force_oracle():
    # oracle: check every rank-1 span of a boundary point directly
    square = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    polar = square.polar_cached()
    _, boundary = polar.lattice_points()
    expect = set()
    for p in boundary:
        basis = la.saturation((p,))
        b = basis[0]
        # slice = polar cut by the line through b
        lo = hi = None
        for t in range(-5, 6):
            if polar.contains(la.scale(t, b)):
                lo = t if lo is None else min(lo, t)
                hi = t if hi is None else max(hi, t)
        if (lo, hi) != (-1, 1):
            continue
        imgs = {la.dot(u, b) for u in square.vertices}
        if max(imgs) == 1 and min(imgs) == -1:
            expect.add(basis)
    got = {c.sublattice.basis for c in search_fibrations(square, 1)}
    assert got == expect


def test_product_of_squares_rank2():
    # 4d product: two obvious square slices, both balanced
    p = LatticePolytope.hull(CUBE4)
    cands = search_fibrations(p, 2)
    bases = {c.sublattice.basis for c in cands}
    assert ((1, 0, 0, 0), (0, 1, 0, 0)) in bases
    assert ((0, 0, 1, 0), (0, 0, 0, 1)) in bases
    for c in cands:
        assert c.slice_polytope.is_reflexive()
        assert c.projection.is_reflexive()


def test_hyp_model_search_contains_k3_slice(ctx):
    cands = search_fibrations(ctx.hyp_simplex, 3)
    target = la.saturation(
        (
            (-1, -1, 2, -1),
            (-1, 11, -1, -1),
            (-1, -1, -1, 1),
            (11, -1, -1, -1),
        )
    )
    match = [c for c in cands if c.sublattice.basis == target]
    assert match, "expected the K3 slice orthogonal to (1,1,4,6)"
    cand = match[0]
    # the quotient direction is (1,1,4,6): the annihilator of the sublattice
    ann = la.right_kernel(cand.sublattice.basis)
    assert ann == ((1, 1, 4, 6),)
    assert cand.balanced
    assert lattice_equivalent(cand.slice_polytope, ctx.k3_simplex.polar_cached())


def test_lattice_equivalent():
    p = LatticePolytope.hull([(1, 0), (0, 1), (-1, -1)])
    q = LatticePolytope.hull([(1, 0), (1, 1), (-2, -1)])  # unimodular image
    assert lattice_equivalent(p, q)
    r = LatticePolytope.hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert not lattice_equivalent(p, r)


def _minors(rows, k):
    n = len(rows[0])
    return [
        la.det([[r[c] for c in cols] for r in rows])
        for cols in itertools.combinations(range(n), k)
    ]


def _dd_slice_integral(points, polar):
    """Reference verdict: the slice vertices by double description, in a
    basis of the saturation of the span of ``points``."""
    basis = la.saturation(points)
    ineqs = [(tuple(la.dot(b, u) for b in basis), c) for u, c in polar.facets]
    verts = vertices_from_inequalities(ineqs, len(basis))
    return all(x.denominator == 1 for v in verts for x in v)


def _convex_polygon(points):
    """Reference: vertices of the convex hull of distinct plane points,
    anticlockwise (Andrew's monotone chain; collinear boundary points
    dropped)."""
    pts = sorted(points)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _line(p, b):
    """An oriented line through p with direction b: (primitive b, det(p, b))."""
    g = math.gcd(*b)
    b = (b[0] // g, b[1] // g)
    return b, p[0] * b[1] - p[1] * b[0]


def _reference_slice_integral(B, polar):
    """Reference k = 2 verdict: the vertex dual to each edge (p, q) of the
    monotone-chain hull of Q' = B' u is -((q2 - p2) b'1 + (p1 - q1) b'2) / D
    with D = det(p, q), in Python integers."""
    b1, b2 = B
    images = [(la.dot(b1, u), la.dot(b2, u)) for u, _ in polar.facets]
    hull = _convex_polygon(set(images))
    return not any(
        ((q2 - p2) * x + (p1 - q1) * y) % (p1 * q2 - p2 * q1)
        for (p1, p2), (q1, q2) in zip(hull, hull[1:] + hull[:1])
        for x, y in zip(b1, b2)
    )


@st.composite
def plane_point_sets(draw):
    """Integer point sets with the origin strictly inside their hull, with
    duplicates and, when drawn, every lattice point on the hull's edges."""
    pts = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=12
        )
    )
    hull = _convex_polygon(set(pts))
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if len(hull) < 3 or any(p[0] * q[1] - p[1] * q[0] <= 0 for p, q in edges):
        pts = pts + [(5, 0), (-3, 4), (-2, -5)]
    if draw(st.booleans()):
        hull = _convex_polygon(set(pts))
        for p, q in zip(hull, hull[1:] + hull[:1]):
            g = math.gcd(q[0] - p[0], q[1] - p[1])
            step = ((q[0] - p[0]) // g, (q[1] - p[1]) // g)
            pts += [(p[0] + t * step[0], p[1] + t * step[1]) for t in range(1, g)]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return draw(st.permutations(pts))


@settings(max_examples=300, deadline=None)
@given(plane_point_sets())
def test_edge_lines_match_monotone_chain(pts):
    hull = _convex_polygon(set(pts))
    edges = list(zip(hull, hull[1:] + hull[:1]))
    assert all(p[0] * q[1] - p[1] * q[0] > 0 for p, q in edges)
    want = {_line(p, (q[0] - p[0], q[1] - p[1])) for p, q in edges}
    x = np.array([[p[0] for p in pts]], dtype=np.int64)
    y = np.array([[p[1] for p in pts]], dtype=np.int64)
    edge, bx, by = _edge_lines(x, y)
    got = {
        _line(p, (int(b1), int(b2)))
        for p, e, b1, b2 in zip(pts, edge[0], bx[0], by[0])
        if e
    }
    assert got == want
    # every hull vertex finds the edge it leaves anticlockwise
    for p, q in edges:
        i = pts.index(p)
        assert edge[0, i]
        b = (int(bx[0, i]), int(by[0, i]))
        assert _line(p, b) == _line(p, (q[0] - p[0], q[1] - p[1]))


def test_projection_test_matches_double_description(ctx):
    # every surviving span, including those whose representative points
    # generate a sublattice of index > 1 in L meet Z^n
    cube = LatticePolytope.hull(CUBE4)
    seen = set()
    for delta in (ctx.k3_simplex, ctx.k3_simplex.polar_cached(), cube, cube.polar()):
        polar = delta.polar_cached()
        for k in (1, 2):
            gens = _generating_points(polar, delta.rank - k)
            P = np.array(gens, dtype=np.int64)
            reps = [rep for batch in _span_survivors(P, k) for _, rep in batch]
            verdicts = _integral_slices(P, reps, polar)
            assert len(verdicts) == len(reps) > 0
            for rep, ok in zip(reps, verdicts):
                points = [gens[i] for i in rep]
                assert ok == _dd_slice_integral(points, polar), (k, points)
                index = math.gcd(*_minors(points, k))
                seen.add((k, index > 1, ok))
    assert {(2, True, True), (2, False, True), (2, False, False)} <= seen
    # fractional slices: lines with a fractional vertex at only one end, and
    # a plane whose two points have index 9 in its saturation (no survivor
    # above has both index > 1 and a fractional slice)
    polar = ctx.k3_simplex.polar_cached()
    assert math.gcd(*_minors([(-1, -1, -1), (8, -1, -1)], 2)) == 9
    for points in ([(-1, -1, -1)], [(1, 1, 1)], [(-1, -1, -1), (8, -1, -1)]):
        assert not _dd_slice_integral(points, polar)
        rep = tuple(range(len(points)))
        assert _integral_slices(np.array(points), [rep], polar) == [False]


def _plucker_key(pts):
    """Normalized Pluecker row of one or two points, None when dependent."""
    if len(pts) == 1:
        minors = list(pts[0])
    else:
        (a, b), n = pts, len(pts[0])
        minors = [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(n), 2)]
    g = math.gcd(*minors)
    if g == 0:
        return None
    sign = 1 if next(m for m in minors if m) > 0 else -1
    return tuple(sign * m // g for m in minors)


def _survivors_reference(rows, k):
    """Reference for _span_survivors, k <= 2, by Python loops: the spans that
    some stage-(k-1) representative (in order of first hit) reaches through
    two rows, keyed by the normalized Pluecker row and represented by the
    first parent, then the first row, that reaches them twice; in the order
    of those representatives."""
    parents = [()]
    for r in range(k):
        reached = {}
        for par in parents:
            seen = {}
            for q, row in enumerate(rows):
                kk = _plucker_key([rows[i] for i in par] + [row])
                if kk is not None:
                    seen.setdefault(kk, []).append(q)
            for kk, qs in seen.items():
                if r + 1 < k or len(qs) >= 2:
                    reached.setdefault(kk, par + (qs[0],))
        parents = sorted(reached.values())
    return reached


def test_span_survivors_match_reference():
    # over 256 parents at k = 2: spans are reached from several batches
    rng = np.random.default_rng(8)
    rows = rng.integers(-6, 7, size=(420, 3)).tolist()
    assert len({_plucker_key([r]) for r in rows} - {None}) > 256
    P = np.array(rows, dtype=np.int64)
    for k in (1, 2):
        batches = list(_span_survivors(P, k))
        assert all(batches)
        got = [pair for batch in batches for pair in batch]
        assert got == list(_survivors_reference(rows, k).items())
    assert len(batches) > 1


def test_int64_bounds():
    with pytest.raises(DegenerateInputError):
        _span_survivors(np.full((4, 4), 2**22, dtype=np.int64), 3)
    # the bound n^2 |row|^(2k) < 2^126 is sharp
    at_bound = np.array([[2**30, 2**30, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(DegenerateInputError):
        _span_survivors(at_bound, 2)
    # just under it: four points in one plane, minors near 2**58
    p1 = [2**29, 2**28, -(2**27), 3]
    p2 = [2**29 - 5, 7 - 2**28, 2**28, -11]
    rows = [p1, p2, [a + b for a, b in zip(p1, p2)], [a - b for a, b in zip(p1, p2)]]
    norm2 = max(sum(x * x for x in r) for r in rows)
    assert 2**124 <= 16 * norm2**2 < 2**126
    minors = _minors([p1, p2], 2)
    g = math.gcd(*minors)
    sign = 1 if next(m for m in minors if m) > 0 else -1
    want = tuple(sign * m // g for m in minors)
    assert list(_span_survivors(np.array(rows, dtype=np.int64), 2)) == [[(want, (0, 1))]]
    # images B'u of the facet normals must fit as well
    square = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    P = np.array([[2**62, 0], [0, 1]], dtype=np.int64)
    with pytest.raises(DegenerateInputError):
        _integral_slices(P, [(0,)], square.polar_cached())
    # k = 2 needs 8 M^2 < 2^63 for M = max|u|_1 max|P|; the cross-polytope's
    # facet normals have |u|_1 = 4, so the bound falls at max|P| = 2^28
    cross = LatticePolytope.hull(CUBE4).polar_cached()
    m = 2**28 - 1
    rows = [
        (m, 0, 0, 0),
        (0, m, 0, 0),
        (m, m - 2, 1, 0),
        (m - 1, -m, 3, 5),
        (-m, 7, m - 4, 2),
        (1, 1, 0, 0),
        (0, 0, m, m - 6),
    ]
    reps = list(itertools.combinations(range(len(rows)), 2))
    P = np.array(rows, dtype=np.int64)
    got = _integral_slices(P, reps, cross)
    want = [_dd_slice_integral([rows[i] for i in rep], cross) for rep in reps]
    assert got == want == [
        _reference_slice_integral([rows[i] for i in rep], cross) for rep in reps
    ]
    assert True in got and False in got
    P[0, 0] += 1
    with pytest.raises(DegenerateInputError):
        _integral_slices(P, reps, cross)


def test_integral_slices_needs_reflexive_polar():
    # facets at distance 2: the slice formulas would answer wrongly
    square2 = LatticePolytope.hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    P = np.array([[1, 0], [0, 1]], dtype=np.int64)
    for reps in ([(0,)], [(0, 1)], []):
        with pytest.raises(NotReflexiveError):
            _integral_slices(P, reps, square2)


@pytest.mark.parametrize(
    "name, k, n_balanced", [("cube4", 2, 6), ("hyp_simplex", 2, 3), ("hyp_polar", 3, 1)]
)
def test_balanced_matches_eager_dual(ctx, monkeypatch, name, k, n_balanced):
    # the polar side is searched only until every flag is settled: cube4's
    # first dual slice matches all six projections, hyp_polar's partner is
    # the third of nine dual candidates, and three of hyp_simplex's six
    # candidates never match, so they drain the dual stream
    delta = {
        "cube4": LatticePolytope.hull(CUBE4),
        "hyp_simplex": ctx.hyp_simplex,
        "hyp_polar": ctx.hyp_simplex.polar_cached(),
    }[name]
    dual = delta.polar_cached()
    calls = []
    evaluate = fibsearch._evaluate_sublattice

    def counting(d, polar, basis):
        calls.append(d)
        return evaluate(d, polar, basis)

    monkeypatch.setattr(fibsearch, "_evaluate_sublattice", counting)
    eager_dual = _raw_candidates(dual, k)
    eager_evals = len(calls)
    calls.clear()
    cands = search_fibrations(delta, k)
    lazy_evals = sum(d is dual for d in calls)
    want = [
        any(lattice_equivalent(c.projection, d.slice_polytope) for d in eager_dual)
        for c in cands
    ]
    assert [c.balanced for c in cands] == want
    assert sum(want) == n_balanced
    raw = _raw_candidates(delta, k)
    assert [c.sublattice for c in cands] == [c.sublattice for c in raw]
    assert not any(c.balanced for c in raw + eager_dual)
    if n_balanced < len(cands):
        assert lazy_evals == eager_evals
    else:
        gens = _generating_points(dual.polar_cached(), dual.rank - k)
        P = np.array(gens, dtype=np.int64)
        survivors = sum(len(batch) for batch in _span_survivors(P, k))
        assert lazy_evals < eager_evals <= survivors
