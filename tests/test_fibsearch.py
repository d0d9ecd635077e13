import itertools

from toricfib import exactlinalg as la
from toricfib.fibsearch import lattice_equivalent, search_fibrations
from toricfib.polytope import LatticePolytope


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
    verts = [
        (a, b, c, d)
        for a, b, c, d in itertools.product((-1, 1), repeat=4)
    ]
    p = LatticePolytope.hull(verts)
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
