import itertools
import math

import numpy as np
import pytest

from toricfib import exactlinalg as la
from toricfib.cy import vertices_from_inequalities
from toricfib.errors import DegenerateInputError
from toricfib.fibsearch import (
    _generating_points,
    _integral_slices,
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
            reps = list(_span_survivors(P, k).values())
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
    assert _span_survivors(np.array(rows, dtype=np.int64), 2) == {want: (0, 1)}
    # images B'u of the facet normals must fit as well
    square = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    P = np.array([[2**62, 0], [0, 1]], dtype=np.int64)
    with pytest.raises(DegenerateInputError):
        _integral_slices(P, [(0,)], square.polar_cached())
