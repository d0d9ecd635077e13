import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricfib import exactlinalg as la
from toricfib import fibsearch
from toricfib.cy import vertices_from_inequalities
from toricfib.errors import DegenerateInputError, NotReflexiveError
from toricfib.fibsearch import (
    _generating_points,
    _integral_slices,
    _raw_candidates,
    _span_survivors,
    lattice_equivalent,
    search_fibrations,
)
from toricfib.polytope import LatticePolytope

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

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
    polar = square.polar()
    _, boundary = polar.lattice_points()
    expect = set()
    for p in boundary:
        basis = la.saturation((p,))
        b = basis[0]
        # slice = polar cut by the line through b
        lo = hi = None
        for t in range(-5, 6):
            x = tuple(t * a for a in b)
            if all(la.dot(x, n) >= -c for n, c in polar.facets):
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
    assert lattice_equivalent(cand.slice_polytope, ctx.k3_simplex.polar())


def test_lattice_equivalent():
    p = LatticePolytope.hull([(1, 0), (0, 1), (-1, -1)])
    q = LatticePolytope.hull([(1, 0), (1, 1), (-2, -1)])  # unimodular image
    assert lattice_equivalent(p, q)
    r = LatticePolytope.hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert not lattice_equivalent(p, r)
    # the integral map (x, y) -> (x + y, x - y) of determinant -2 takes r's
    # vertices onto the square's, but no unimodular map does
    square = LatticePolytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert not lattice_equivalent(r, square)


def _minors(rows, k):
    n = len(rows[0])
    return [
        la.det([[r[c] for c in cols] for r in rows])
        for cols in itertools.combinations(range(n), k)
    ]


def _dd_slice(points, polar):
    """Reference: the slice vertices by double description, in a basis of
    the saturation of the span of ``points``; in ambient coordinates and
    sorted when they are all lattice points, else None."""
    basis = la.saturation(points)
    ineqs = [(tuple(la.dot(b, u) for b in basis), c) for u, c in polar.facets]
    verts = vertices_from_inequalities(ineqs, len(basis))
    if any(x.denominator != 1 for v in verts for x in v):
        return None
    return tuple(sorted(la.vecmat(tuple(int(x) for x in v), basis) for v in verts))


def _reference_slice_integral(B, polar):
    """Reference verdict in Python integers: over every k-subset J of the
    facets whose images Q'_J = B' u_J are independent, the feasible solutions
    y_J of y Q'_J = -1 give the slice vertices y_J B'."""
    k = len(B)
    images = [[la.dot(b, u) for b in B] for u, _ in polar.facets]
    for J in itertools.combinations(images, k):
        A = [[q[i] for q in J] for i in range(k)]
        d = la.det(A)
        if d == 0:
            continue
        adj = la.adjugate(A)
        y = [Fraction(-sum(row[i] for row in adj), d) for i in range(k)]
        if all(sum(a * b for a, b in zip(y, q)) >= -1 for q in images):
            x = [sum(a * b for a, b in zip(y, col)) for col in zip(*B)]
            if any(c.denominator != 1 for c in x):
                return False
    return True


def _models(ctx):
    cube = LatticePolytope.hull(CUBE4)
    return (
        ctx.k3_simplex,
        ctx.k3_simplex.polar(),
        cube,
        cube.polar(),
        ctx.hyp_simplex,
        ctx.hyp_simplex.polar(),
    )


def test_generating_points_match_face_lattice(ctx, monkeypatch):
    # face dimensions by the rank of the tight normals, against the face
    # lattice; the search itself never builds the face lattice.  The 5d CI
    # polytopes have lattice points inside non-simple faces.
    for delta in _models(ctx) + (ctx.ci_polar, ctx.ci_base):
        polar = delta.polar()
        _, boundary = polar.lattice_points()
        masks = polar._points_data[2]
        tight2dim = {f.tight_facets: f.dim for fs in polar._face_data.values() for f in fs}
        for max_face_dim in range(polar.rank):
            want = [p for p in boundary if tight2dim[masks[p]] <= max_face_dim]
            assert _generating_points(polar, max_face_dim) == want
    def no_face_lattice(self):
        raise AssertionError("the search built a face lattice")

    monkeypatch.setattr(LatticePolytope, "_face_data", property(no_face_lattice))
    for vertices, k in ((CUBE4, 2), (CUBE4, 3), (ctx.hyp_simplex.vertices, 3)):
        assert search_fibrations(LatticePolytope.hull(vertices), k)


def test_projection_test_matches_double_description(ctx):
    # every surviving span, including those whose representative points
    # generate a sublattice of index > 1 in L meet Z^n
    seen = set()
    for delta in _models(ctx):
        polar = delta.polar()
        for k in range(1, delta.rank):
            gens = _generating_points(polar, delta.rank - k)
            P = np.array(gens, dtype=np.int64)
            reps = [rep for batch in _span_survivors(P, k) for _, rep in batch]
            got = _integral_slices(P, reps, polar)
            assert len(got) == len(reps) > 0
            for rep, verts in zip(reps, got):
                points = [gens[i] for i in rep]
                assert verts == _dd_slice(points, polar), (k, points)
                index = math.gcd(*_minors(points, k))
                seen.add((k, index > 1, verts is not None))
    assert {(2, True, True), (2, False, True), (2, False, False)} <= seen
    assert {(3, True, True), (3, False, True), (3, False, False)} <= seen
    # fractional slices: lines with a fractional vertex at only one end, and
    # a plane whose two points have index 9 in its saturation
    polar = ctx.k3_simplex.polar()
    assert math.gcd(*_minors([(-1, -1, -1), (8, -1, -1)], 2)) == 9
    for points in ([(-1, -1, -1)], [(1, 1, 1)], [(-1, -1, -1), (8, -1, -1)]):
        assert _dd_slice(points, polar) is None
        rep = tuple(range(len(points)))
        assert _integral_slices(np.array(points), [rep], polar) == [None]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slice_vertices_match_double_description_on_random_spans(ctx, data):
    polar = data.draw(st.sampled_from(_models(ctx))).polar()
    n = polar.rank
    k = data.draw(st.integers(1, n - 1))
    _, boundary = polar.lattice_points()
    row = st.one_of(st.sampled_from(boundary), st.tuples(*[st.integers(-3, 3)] * n))
    rows = data.draw(st.lists(row, min_size=k, max_size=k))
    assume(la.rank(rows) == k)
    P = np.array(rows, dtype=np.int64)
    got = _integral_slices(P, [tuple(range(k))], polar)
    assert got == [_dd_slice(rows, polar)]
    assert (got[0] is not None) == _reference_slice_integral(rows, polar)


def _cofactors(minors, r, n):
    """For rows B of rank r with r-minors ``minors`` (in column-set order),
    per (r + 1)-column set S in order, the pairs (m, c) with
    minor_S(B; q) = sum of c q[m]: the expansion along the appended row q."""
    index = {c: i for i, c in enumerate(itertools.combinations(range(n), r))}
    return [
        [(m, (-1) ** (r + t) * minors[index[S[:t] + S[t + 1 :]]]) for t, m in enumerate(S)]
        for S in itertools.combinations(range(n), r + 1)
    ]


def _plucker_key(minors):
    """The normalized Pluecker row of a minor vector and the sign that
    normalizes it; (None, 0) when the rows are dependent."""
    g = math.gcd(*minors)
    if g == 0:
        return None, 0
    sign = 1 if next(m for m in minors if m) > 0 else -1
    return tuple(sign * m // g for m in minors), sign


def _survivors_reference(rows, k, rule="both sides"):
    """Reference for _span_survivors by Python loops, as an ordered dict from
    normalized Pluecker row to representative.

    Each stage extends the representatives of the previous one, in
    lexicographic order: by the rows after their last (lemma A), or by every
    row under the rule "two rows".  A span is represented by its first hit;
    at the last stage only by a hit from a parent that reaches it from both
    of its sides (lemma B), or through two distinct rows."""
    n = len(rows[0])
    parents = [((), (1,))]
    for r in range(1, k + 1):
        reached = {}
        for rep, minors in parents:
            cof = _cofactors(minors, r - 1, n)
            hits = {}
            start = rep[-1] + 1 if rep and rule == "both sides" else 0
            for q in range(start, len(rows)):
                row = rows[q]
                ext = tuple(sum(c * row[m] for m, c in terms) for terms in cof)
                key, side = _plucker_key(ext)
                if key is not None:
                    hits.setdefault(key, []).append((q, side))
            for key, qs in hits.items():
                if r < k:
                    keep = True
                elif rule == "both sides":
                    keep = len({side for _, side in qs}) == 2
                else:
                    keep = len(qs) >= 2
                if keep:
                    reached.setdefault(key, rep + (qs[0][0],))
        parents = sorted((rep, key) for key, rep in reached.items())
    return reached


def _golden_searches():
    """The (polytope, fibre rank) searches of the benchmark's
    ``FIBRATION_GOLDENS``, on the untransformed vertices."""
    vertices = workloads.FibrationSearch(0).vertices
    return [
        (LatticePolytope.hull(vertices[name]), k)
        for name, k, _, _ in workloads.FIBRATION_GOLDENS
    ]


def test_span_survivors_match_reference():
    # over 256 parents at k = 2: spans are reached from several batches
    rng = np.random.default_rng(8)
    rows = rng.integers(-6, 7, size=(420, 3)).tolist()
    assert len({_plucker_key(r)[0] for r in rows} - {None}) > 256
    P = np.array(rows, dtype=np.int64)
    for k in (1, 2):
        batches = list(_span_survivors(P, k))
        assert all(batches)
        got = [pair for batch in batches for pair in batch]
        assert got == list(_survivors_reference(rows, k).items())
        # every survivor also passes the weaker two-rows rule
        assert {key for key, _ in got} <= _survivors_reference(rows, k, "two rows").keys()
    assert len(batches) > 1
    # on the benchmark's searches, every span the two-rows rule passes with
    # an integral slice also survives, so no candidate is lost
    for delta, k in _golden_searches():
        polar = delta.polar()
        gens = _generating_points(polar, delta.rank - k)
        P = np.array(gens, dtype=np.int64)
        got = [pair for batch in _span_survivors(P, k) for pair in batch]
        assert got == list(_survivors_reference(gens, k).items())
        old = _survivors_reference(gens, k, "two rows")
        assert {key for key, _ in got} <= old.keys()
        accepted = [
            key
            for key, verts in zip(old, _integral_slices(P, list(old.values()), polar))
            if verts is not None
        ]
        assert accepted and set(accepted) <= {key for key, _ in got}


@pytest.mark.parametrize("name", ["k3_simplex", "k3_polar", "cube4"])
def test_rank2_search_matches_brute_force(ctx, name):
    # every span of two boundary points of the polar, decided by double
    # description: no pruning of the enumeration loses a candidate
    delta = {
        "k3_simplex": ctx.k3_simplex,
        "k3_polar": ctx.k3_simplex.polar(),
        "cube4": LatticePolytope.hull(CUBE4),
    }[name]
    polar = delta.polar()
    _, boundary = polar.lattice_points()
    assert set(_generating_points(polar, delta.rank - 2)) <= set(boundary)
    spans = {
        la.saturation(pair)
        for pair in itertools.combinations(boundary, 2)
        if la.rank(pair) == 2
    }
    want = {basis for basis in spans if _dd_slice(basis, polar) is not None}
    got = {c.sublattice.basis for c in search_fibrations(delta, 2)}
    assert want and got == want


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
    # the slice test needs k k! M^k < 2^63 for M = max|u|_1 max|P|; the
    # cross-polytope's facet normals have |u|_1 = 4, so for k = 1, 2, 3 the
    # bound falls between max|P| = m and m + 1
    cross = LatticePolytope.hull(CUBE4).polar()
    for k, m in ((1, 2**61 - 1), (2, 379625062), (3, 200053)):
        bound = k * math.factorial(k) * 4**k
        assert bound * m**k < 2**63 <= bound * (m + 1) ** k
        rows = [
            (m, 0, 0, 0),
            (0, m, 0, 0),
            (0, 0, m, 0),
            (m, m - 2, 1, 0),
            (m - 1, -m, 3, 5),
            (-m, 7, m - 4, 2),
            (1, 1, 0, 0),
            (0, 0, m, m - 6),
        ]
        reps = [
            rep
            for rep in itertools.combinations(range(len(rows)), k)
            if la.rank([rows[i] for i in rep]) == k
        ]
        P = np.array(rows, dtype=np.int64)
        got = _integral_slices(P, reps, cross)
        assert got == [_dd_slice([rows[i] for i in rep], cross) for rep in reps]
        verdicts = [verts is not None for verts in got]
        assert verdicts == [
            _reference_slice_integral([rows[i] for i in rep], cross) for rep in reps
        ]
        assert True in verdicts and False in verdicts
        P[0, 0] += 1
        with pytest.raises(DegenerateInputError):
            _integral_slices(P, reps, cross)


def test_integral_slices_needs_reflexive_polar():
    # facets at distance 2: the slice test would answer wrongly
    cube2 = LatticePolytope.hull([tuple(2 * x for x in v) for v in CUBE4])
    P = np.eye(4, dtype=np.int64)
    for reps in ([(0,)], [(0, 1)], [(0, 1, 2)], []):
        with pytest.raises(NotReflexiveError):
            _integral_slices(P, reps, cube2)


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
        "hyp_polar": ctx.hyp_simplex.polar(),
    }[name]
    dual = delta.polar()
    decided = []
    integral_slices = fibsearch._integral_slices

    def counting(P, reps, polar):
        decided.append((polar, len(reps)))
        return integral_slices(P, reps, polar)

    monkeypatch.setattr(fibsearch, "_integral_slices", counting)
    eager_dual = _raw_candidates(dual, k)
    eager_decided = sum(n for _, n in decided)
    decided.clear()
    cands = search_fibrations(delta, k)
    lazy_decided = sum(n for p, n in decided if p is dual.polar())
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
        assert lazy_decided == eager_decided
    else:
        gens = _generating_points(dual.polar(), dual.rank - k)
        P = np.array(gens, dtype=np.int64)
        survivors = sum(len(batch) for batch in _span_survivors(P, k))
        assert lazy_decided < eager_decided == survivors
