import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from toricfib import exactlinalg as la
from toricfib.dd import _initial_basis_rays, double_description, extreme_rays, simplicial_facets
from toricfib.errors import NotFullDimensionalError
from toricfib.polytope import LatticePolytope


def test_hermite_small():
    h, u = la.hermite_form([[2, 4], [1, 3]])
    assert la.matmul(u, ((2, 4), (1, 3))) == h
    assert la.det(u) in (1, -1)
    # canonical form: pivots positive, entry above the second pivot reduced
    assert h == ((1, 1), (0, 2))


def test_adjugate_inverts_up_to_det():
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(20):
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            d = la.det(m)
            scaled = tuple(tuple(d * x for x in row) for row in la.identity(n))
            assert la.matmul(m, la.adjugate(m)) == scaled
            assert la.matmul(la.adjugate(m), m) == scaled


def _leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(len(m)))
    return total


def test_scaled_inverse_matches_cofactor_reference():
    rng = random.Random(1968)
    singular = swapped = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        size = rng.choice((1, 2, 30))
        m = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            u, v = rng.sample(range(n), 2)
            m[u] = [rng.randint(-2, 2) * x for x in m[v]]  # a dependent row
        m = tuple(map(tuple, m))
        d, adj = la.scaled_inverse(m)
        assert d == _leibniz_det(m) == la.det(m), m
        if d == 0:
            singular += 1
            assert adj is None
            continue
        swapped += m[0][0] == 0
        assert adj == la.adjugate(m), m
        scaled = tuple(tuple(d * x for x in row) for row in la.identity(n))
        assert la.matmul(m, adj) == la.matmul(adj, m) == scaled
    # singular inputs and inputs that need a row swap both occur often
    assert singular > 200 and swapped > 100
    assert la.scaled_inverse(()) == (1, ())
    with pytest.raises(ValueError, match="square"):
        la.scaled_inverse(((1, 2),))


def test_hermite_identity_and_zero():
    h, u = la.hermite_form(la.identity(3))
    assert h == la.identity(3)
    assert u == la.identity(3)
    h, _ = la.hermite_form([[0, 0]])
    assert h == ((0, 0),)


def test_hermite_idempotent():
    h, _ = la.hermite_form([[6, 4, 2], [2, 8, 4], [0, 0, 5]])
    h2, _ = la.hermite_form(h)
    assert h == h2


mats = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(mats)
def test_hermite_certificate(rows):
    h, u = la.hermite_form(rows)
    assert la.matmul(u, la.mat(rows)) == h
    assert la.det(u) in (1, -1)
    h2, _ = la.hermite_form(h)
    assert h2 == h


def _hermite_rank(m):
    """Rank as the number of nonzero rows of the Hermite normal form."""
    if not len(m):
        return 0
    h, _ = la.hermite_form(m)
    return sum(1 for r in h if not la.is_zero(r))


wide_mats = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=0, max_size=6
    )
)


@settings(max_examples=300, deadline=None)
@given(wide_mats, st.randoms(use_true_random=False))
def test_rank_matches_hermite_rows(rows, rng):
    # dependent rows: append integer combinations of the drawn ones
    for _ in range(len(rows) // 2):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        u, v = rng.choice(rows), rng.choice(rows)
        rows.append([a * x + b * y for x, y in zip(u, v)])
    want = _hermite_rank(rows)
    assert la.rank(tuple(map(tuple, rows))) == want
    assert la.rank(np.array(rows, dtype=np.int64)) == want
    assert len(la.independent_rows(rows)) == want


def test_rank_of_empty_matrix():
    assert la.rank(()) == 0
    assert la.independent_rows(()) == []


@settings(max_examples=150, deadline=None)
@given(wide_mats)
def test_maximal_minor_gcd_matches_full_scan(rows):
    rows = rows[: len(rows[0])] if rows else rows
    k, n = len(rows), len(rows[0]) if rows else 0
    want = 0
    for cols in itertools.combinations(range(n), k):
        want = math.gcd(want, la.det([[r[c] for c in cols] for r in rows]))
    assert la.maximal_minor_gcd(rows) == want
    assert (want == 0) == (_hermite_rank(rows) < k)


def _cofactor_basis_rays(constraints, dim):
    """Reference for dd._initial_basis_rays: greedy row choice by Hermite
    rank, then the columns of the adjugate, signed by the determinant."""
    idx, chosen = [], []
    for i, a in enumerate(constraints):
        if _hermite_rank(chosen + [a]) > len(chosen):
            idx.append(i)
            chosen.append(a)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise ValueError("cone is not pointed (constraints do not span)")
    sign = -1 if la.det(chosen) < 0 else 1
    adj = la.adjugate(chosen)
    return idx, [la.primitive(tuple(sign * row[j] for row in adj)) for j in range(dim)]


def test_initial_basis_rays_match_cofactor_reference():
    rng = random.Random(7)
    raised = 0
    for _ in range(1500):
        dim = rng.randint(1, 5)
        size = rng.choice((1, 3, 40))
        rows = [
            tuple(rng.randint(-size, size) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 3))
        ]
        for _ in range(rng.randint(0, 3)):
            u, v = rng.choice(rows), rng.choice(rows)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.insert(rng.randint(0, len(rows)), tuple(a * x + b * y for x, y in zip(u, v)))
        rows = tuple(rows)
        try:
            want = _cofactor_basis_rays(rows, dim)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="not pointed"):
                _initial_basis_rays(rows, dim)
            continue
        assert _initial_basis_rays(rows, dim) == want, rows
    # both outcomes occur often enough to be tested
    assert 200 < raised < 1300


def _extreme_rays_by_subsets(constraints, dim):
    """Reference for dd.double_description: every rank-(dim - 1) subset of
    the constraints has a line as kernel, and a primitive direction of it
    that satisfies every constraint is an extreme ray."""
    out = set()
    for subset in itertools.combinations(set(constraints), dim - 1):
        if _hermite_rank(subset) < dim - 1:
            continue
        (k,) = la.right_kernel(subset)
        for r in (k, la.neg(k)):
            if all(la.dot(r, a) >= 0 for a in constraints):
                out.add(r)
    return out


def test_double_description_matches_subset_reference():
    rng = random.Random(2027)
    kinds = {"rays": 0, "origin": 0, "not pointed": 0}
    for _ in range(400):
        dim = rng.randint(2, 5)
        # constraints mostly positive on a random direction, so most cones
        # are full-dimensional; +- pairs cut them down to lower dimension
        y = [rng.randint(-3, 3) for _ in range(dim)]
        rows, size = [], rng.randint(dim - 1, dim + 4)
        while len(rows) < size:
            a = tuple(rng.randint(-3, 3) for _ in range(dim))
            if la.dot(a, y) > 0 or rng.random() < 0.2:
                rows.append(a)
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(rows)
            extra = rng.choice((a, tuple(2 * x for x in a), la.neg(a)))  # repeat, scale, pair
            rows.insert(rng.randint(0, len(rows)), extra)
        rows = tuple(rows)
        if _hermite_rank(rows) < dim:
            kinds["not pointed"] += 1
            with pytest.raises(ValueError, match="not pointed"):
                double_description(rows, dim)
            continue
        got = double_description(rows, dim)
        assert set(got) == _extreme_rays_by_subsets(rows, dim), rows
        assert extreme_rays(rows, dim) == tuple(sorted(got))
        for r, tight in got.items():
            assert tight == {
                i for i, a in enumerate(rows) if la.dot(r, a) == 0 and a not in rows[:i]
            }, (rows, r)
        kinds["rays" if got else "origin"] += 1
    assert all(n > 10 for n in kinds.values()), kinds


def test_hull_of_collinear_points_is_not_full_dimensional():
    with pytest.raises(NotFullDimensionalError):
        LatticePolytope.hull([(0, 0, 0), (1, 1, 1), (2, 2, 2), (-1, -1, -1)])


@seed(1312)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simplicial_facets_match_double_description(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, n))
    entries = st.integers(-6, 6)
    rays = data.draw(st.lists(st.tuples(*[entries] * n), min_size=k, max_size=k))
    assume(la.rank(rays) == k)
    rays = la.mat(rays)
    eqs = la.right_kernel(rays)
    want = extreme_rays(rays + eqs + tuple(map(la.neg, eqs)), n)
    assert simplicial_facets(rays) == want


def test_dot_rejects_different_lengths():
    assert la.dot((1, 2, 3), (4, 5, 6)) == 32
    for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))):
        with pytest.raises(ValueError):
            la.dot(u, v)


@settings(max_examples=150, deadline=None)
@given(mats)
def test_kernel_annihilates_and_saturated(rows):
    m = la.mat(rows)
    kern = la.kernel_basis(m)
    for c in kern:
        assert la.is_zero(la.vecmat(c, m))
    # saturation: dividing any row by an integer > 1 must leave the lattice
    for c in kern:
        for d in (2, 3, 5):
            if all(x % d == 0 for x in c):
                raise AssertionError("kernel basis row not primitive within lattice")
    # rank check
    assert len(kern) == len(m) - la.rank(m)


def test_kernel_antipodal_pair():
    assert la.kernel_basis([[3, -1, 2], [-3, 1, -2]]) == ((1, 1, 0)[: 2],) or la.kernel_basis(
        [[3, -1, 2], [-3, 1, -2]]
    ) == ((1, 1),)


def test_primitive():
    assert la.primitive((12, 0, -12)) == (1, 0, -1)
    assert la.primitive((1, 1, 4, 6)) == (1, 1, 4, 6)
    assert la.primitive((0, 0, -2, 4, -2)) == (0, 0, -1, 2, -1)
    for k in range(1, 6):
        v = (3 * k, -6 * k, 9 * k)
        assert la.primitive(v) == la.primitive((3, -6, 9))


def test_primitive_zero_errors():
    try:
        la.primitive((0, 0))
    except ValueError as e:
        assert "primitive" in str(e)
    else:
        raise AssertionError


def test_solve_exact():
    a = la.mat([[2, 0, 1], [0, 3, 1]])
    b = (2, 3, 2)
    x = la.solve_exact(a, b)
    assert x is not None and la.vecmat(x, a) == b
    assert la.solve_exact(a, (1, 0, 0)) is None


def test_saturation():
    sat = la.saturation([[2, 0], [0, 2]])
    assert la.mat(sat) == la.identity(2)
    sat = la.saturation([[2, 4, 6]])
    assert sat == ((1, 2, 3),)


def test_sublattice_roundtrip():
    sub = la.Sublattice(basis=la.saturation([[2, 2, 0], [0, 0, 3]]), ambient_rank=3)
    for _ in range(25):
        c = tuple(random.randint(-5, 5) for _ in range(sub.rank))
        v = sub.from_coords(c)
        assert sub.coords(v) == c


def _all_python_ints(x):
    if isinstance(x, tuple):
        return all(_all_python_ints(y) for y in x)
    return x is None or type(x) is int


def test_numpy_input_matches_tuples():
    rows = ((2, 4, 4), (-6, 6, 12), (10, -4, -16), (1, 0, 1))
    arr = np.array(rows, dtype=np.int64)
    flat = ((1, 2, 3),)
    cone = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))
    cases = [
        (la.hermite_form, (rows,), (arr,)),
        (la.right_kernel, (flat,), (np.array(flat, dtype=np.int64),)),
        (la.saturation, (rows[:2],), (arr[:2],)),
        (la.solve_exact, (rows, (-3, 10, 17)), (arr, np.array((-3, 10, 17), dtype=np.int64))),
        (extreme_rays, (cone, 3), (np.array(cone, dtype=np.int64), 3)),
    ]
    for fn, plain, numpy_args in cases:
        want = fn(*plain)
        got = fn(*numpy_args)
        assert got == want, fn.__name__
        assert _all_python_ints(got), fn.__name__
