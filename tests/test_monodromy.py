import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from toricfib import models, monodromy
from toricfib.errors import DegenerateInputError
from toricfib.monodromy import (
    GaussInt,
    Loop,
    Mat2,
    RootFamily,
    base_roots,
    classify_kodaira,
    compose,
    cycle_type,
    group_order,
    power_monodromy,
    singular_parameters,
    track_loop_at_infinity,
    track_roots,
)

# family a of the double cover in acceptance criterion 15: its three roots
# near x = 0 are of size |x|^(11/3)
FAMILY_A = models.DOUBLE_COVER_FAMILIES[0]


def sqrt_family():
    # y^2 - x
    return RootFamily.build([[0, -1], [0], [1]])


def _sylvester(coeffs):
    """Sylvester matrix of f and df/dy for f with the given ascending
    y-coefficients: the rows of f first, both in descending powers of y."""
    n = len(coeffs) - 1
    f = coeffs[::-1]
    fp = [k * coeffs[k] for k in range(n, 0, -1)]
    size = 2 * n - 1
    rows = [[0] * i + f + [0] * (size - n - 1 - i) for i in range(n - 1)]
    return rows + [[0] * i + fp + [0] * (size - n - i) for i in range(n)]


def _leibniz(m):
    """Sum over all permutations p of sign(p) * prod m[i][p(i)], skipping
    the permutations through a zero entry."""

    def expand(i, used, sign, prod):
        if i == len(m):
            return sign * prod
        total = 0
        for j, entry in enumerate(m[i]):
            if j not in used and entry:
                parity = sum(1 for k in used if k > j) % 2
                total += expand(i + 1, used | {j}, -sign if parity else sign, prod * entry)
        return total

    return expand(0, frozenset(), 1, 1)


def _at(p, x):
    return sum(c * x**k for k, c in enumerate(p))


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@seed(1312)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_discriminant_matches_leibniz_sylvester(data):
    n = data.draw(st.integers(1, 4))
    coeffs = data.draw(
        st.lists(st.lists(rationals, min_size=1, max_size=4), min_size=n + 1, max_size=n + 1)
    )
    assume(any(coeffs[-1]))
    disc = RootFamily.build(coeffs).discriminant
    for x in data.draw(st.lists(rationals, min_size=5, max_size=5)):
        want = _leibniz(_sylvester([_at(c, x) for c in coeffs]))
        assert _at(disc, x) == want


def test_discriminant_takes_row_swap():
    # y^2 + 1: Bareiss meets a zero pivot in the second column and swaps rows
    fam = RootFamily.build([[1], [0], [1]])
    assert fam.discriminant == (4,)
    assert _leibniz(_sylvester([1, 0, 1])) == 4
    assert singular_parameters(fam) == []


def test_build_rejects_complex_coefficients():
    for bad in (1j, complex(2, 1)):
        with pytest.raises(TypeError):
            RootFamily.build([[0, bad], [0], [1]])
    assert RootFamily.build([[0, Fraction(1, 2)], [0], [1]]).coeffs[0] == (0, Fraction(1, 2))


def test_mat2_of_gaussian_integers_only():
    for bad in (Fraction(1, 2), 0.5j):
        with pytest.raises(DegenerateInputError):
            Mat2.of([[1, bad], [0, 1]])
    assert Mat2.of([[0, 1], [-1, 0]], 1j) == Mat2.of([[0, 1j], [-1j, 0]])
    assert Mat2.of([[2, 0], [0, 1]]).entries()[0] == GaussInt(2, 0)


def test_singular_parameters_sqrt():
    sing = singular_parameters(sqrt_family())
    assert len(sing) == 1
    assert abs(sing[0][0]) < 1e-30


def test_discriminant_computed_once():
    fam = RootFamily.build(FAMILY_A)
    disc = fam.discriminant
    assert fam.discriminant is disc
    twin = RootFamily.build(FAMILY_A)
    assert twin == fam and hash(twin) == hash(fam)
    assert twin.discriminant == disc
    assert singular_parameters(fam) == singular_parameters(twin)


def test_singular_parameters_at_requested_precision_once(monkeypatch):
    # the caller's precision does not round the values or radii
    fam = RootFamily.build(FAMILY_A)
    got = singular_parameters(fam, 256)
    with mp.workprec(256):
        want = singular_parameters(RootFamily.build(FAMILY_A), 256)
    assert got == want and len(got) == 5
    with mp.workprec(53):
        assert any(+v != v for v, _ in got)
    # a second call reads the memo, and mutating a result does not reach it
    monkeypatch.setattr(monodromy, "_polyroots", None)
    again = singular_parameters(fam, 256)
    assert again == got and again is not got
    again.clear()
    assert singular_parameters(fam, 256) == got


def test_singular_parameters_tiny_values():
    # y^2 - (x^2 - 1e-100): two singular values +-1e-50, each isolated by 1e-50
    fam = RootFamily.build([[Fraction(1, 10**100), 0, -1], [0], [1]])
    with mp.workprec(128):
        sing = singular_parameters(fam, 128)
        assert len(sing) == 2
        for (v, radius), want in zip(sing, (-1, 1)):
            assert abs(v / (want * mp.mpf(10) ** -50) - 1) < mp.mpf(10) ** -30
            assert abs(radius / mp.mpf(10) ** -50 - 1) < mp.mpf(10) ** -30


def test_singular_parameters_constant_family():
    fam = RootFamily.build([[-1], [0], [0], [1]])  # y^3 - 1
    assert singular_parameters(fam) == []


def test_nonreduced_family_errors():
    fam = RootFamily.build([[0], [0], [1]])  # y^2, double root everywhere
    with pytest.raises(DegenerateInputError):
        singular_parameters(fam)


def test_sqrt_monodromy():
    fam = sqrt_family()
    perm, residual = track_roots(fam, Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5))
    assert cycle_type(perm) == (2,)
    assert residual < mp.mpf(2) ** -90
    # a loop around a regular point is trivial
    perm2, _ = track_roots(fam, Loop(base=mp.mpc(2), center=mp.mpc(1), radius=0.25))
    assert perm2 == (0, 1)


def test_track_cube_root():
    # y^3 - x has a 3-cycle around the origin
    fam = RootFamily.build([[0, -1], [0], [0], [1]])
    perm, _ = track_roots(fam, Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5))
    assert cycle_type(perm) == (3,)


def test_step_halving_invariance():
    fam = sqrt_family()
    loop = Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5)
    p1, _ = track_roots(fam, loop, prec=128)
    p2, _ = track_roots(fam, loop, prec=256)
    assert p1 == p2
    p3, _ = track_roots(fam, loop, prec=128, initial_step=mp.mpf(1) / 16)
    assert p3 == p1


def test_refinement_honours_prec():
    fam = sqrt_family()
    loop = Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5)
    _, residual = track_roots(fam, loop, prec=256)
    assert residual < mp.mpf(2) ** -200


def test_radius_sweep_about_origin():
    # the roots about x = 0 are ~1e-15 at radius 1e-4 and ~1e-44 at 1e-12:
    # tolerances relative to the root scale keep the 3-cycle at every radius
    fam = RootFamily.build(FAMILY_A)
    base = mp.mpf(-1) / 10
    perms = set()
    for radius in ("1e-4", "1e-7", "1e-9", "1e-12"):
        perm, residual = track_roots(fam, Loop(base=base, center=0, radius=mp.mpf(radius)))
        assert cycle_type(perm) == (3,)
        assert residual < mp.mpf(10) ** -40
        perms.add(perm)
    assert len(perms) == 1
    # at 1e-20 the smallest step from the base overshoots the roots' scale
    with pytest.raises(DegenerateInputError, match="roots collide"):
        track_roots(fam, Loop(base=base, center=0, radius=mp.mpf("1e-20")))
    # about +i the double path resolves a circle of radius 1e-13, but one of
    # 1e-14 is lost in rounding
    perm, _ = track_roots(fam, Loop(base=base, center=mp.mpc(0, 1), radius=mp.mpf("1e-13")))
    assert cycle_type(perm) == (2, 1)
    with pytest.raises(DegenerateInputError, match="not resolved"):
        track_roots(fam, Loop(base=base, center=mp.mpc(0, 1), radius=mp.mpf("1e-14")))


# Permutations of the loops of radius 1e-4 about the seven finite singular
# values of the double cover's families, from base -1/10 at 128 bits, for
# family a and family b.  They are those of a tracker whose steps are at most
# 1/256 of a path segment; its runs at 1/32 and 1/64 agree.
_Q = 1 / 1728
_QI = math.sqrt(1 - _Q * _Q)
PINNED_LOOPS = (
    (complex(-_Q, -_QI), ((0, 2, 1), (0, 1, 2))),
    (complex(-_Q, _QI), ((0, 2, 1), (0, 1, 2))),
    (complex(0, -1), ((1, 0, 2), (1, 0, 2))),
    (complex(0, 0), ((1, 2, 0), (2, 0, 1))),
    (complex(0, 1), ((2, 1, 0), (1, 0, 2))),
    (complex(_Q, -_QI), ((0, 1, 2), (0, 2, 1))),
    (complex(_Q, _QI), ((0, 1, 2), (2, 1, 0))),
)


def test_double_cover_loops_pinned():
    fams = [RootFamily.build(c) for c in models.DOUBLE_COVER_FAMILIES]
    with mp.workprec(128):
        base = mp.mpc(-1) / 10
        allsing = singular_parameters(fams[0], 128) + singular_parameters(fams[1], 128)
        loops = {}
        for where, want in PINNED_LOOPS:
            center = min((v for v, _ in allsing), key=lambda v: abs(v - where))
            assert abs(center - where) < 1e-9
            loops[where] = Loop(base=base, center=center, radius=mp.mpf("1e-4"))
            got = tuple(track_roots(f, loops[where], 128, _singulars=allsing)[0] for f in fams)
            assert got == want, where
        # the +i cluster packs three singular values within 6e-4: an eight
        # times smaller largest step follows the same paths
        fine, _ = track_roots(
            fams[0], loops[1j], 128, initial_step=mp.mpf(1) / 64, _singulars=allsing
        )
        assert fine == dict(PINNED_LOOPS)[1j][0]


def test_base_point_solved_once_per_precision(monkeypatch):
    fam = RootFamily.build(FAMILY_A)
    base = mp.mpf(-1) / 10
    loop = Loop(base=base, center=0, radius=mp.mpf("1e-4"))
    for prec in (128, 256):
        singular_parameters(fam, prec)  # memoized first: only base solves count
    calls = []
    solve = monodromy._polyroots
    monkeypatch.setattr(monodromy, "_polyroots", lambda cs: calls.append(cs) or solve(cs))
    first = track_roots(fam, loop, 128)
    assert track_loop_at_infinity(fam, base, 4.0, 128)[0] == (1, 2, 0)
    assert track_roots(fam, loop, 256)[0] == first[0]
    assert len(calls) == 2
    # base_roots reads the same memo, and mutating a result does not reach it
    roots = base_roots(fam, base, 128)
    want = list(roots)
    roots.reverse()
    roots.pop()
    assert base_roots(fam, base, 128) == want and len(want) == 3
    assert len(calls) == 2


@pytest.mark.parametrize("sense", (1, -1))
@pytest.mark.parametrize("prec", (128, 256))
def test_circle_path_by_rotation(prec, sense):
    # the 24 rotated points lie on the circle, at the angle of the first point
    # plus multiples of sense * 2 pi / 24, and end at it.  Points round
    # relative to their modulus, so the centres here are no larger than the
    # radii: about 0 as at infinity, and off 0
    with mp.workprec(prec):
        base = mp.mpc(-1) / 10
        for center, r in ((mp.mpc(0), mp.mpf(4)), (mp.mpc(1, 2) / 7, mp.mpf(1) / 3)):
            pts = monodromy._circle_path(base, center, r, sense)
            tol = mp.mpf(2) ** -(prec - 8) * r
            start, circle = pts[1], pts[2:-1]
            assert pts[0] == pts[-1] == base and len(circle) == 24
            assert abs(abs(start - center) - r) <= tol
            theta0 = mp.arg(start - center)
            for k, p in enumerate(circle, 1):
                assert abs(abs(p - center) - r) <= tol
                want = center + r * mp.expj(theta0 + sense * 2 * mp.pi * k / 24)
                assert abs(p - want) <= tol
            assert abs(circle[-1] - start) <= tol


def test_root_scale_invariance():
    # y^3 - s^3 x: roots of size s, the same 3-cycle about x = 0 for any s
    for s in (1, Fraction(1, 10**40), Fraction(1, 10**90)):
        fam = RootFamily.build([[0, -(s**3)], [0], [0], [1]])
        perm, _ = track_roots(fam, Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5))
        assert perm == (1, 2, 0)
    # roots of size 1e-100 leave the double range: an error, never an answer
    fam = RootFamily.build([[0, -Fraction(1, 10**300)], [0], [0], [1]])
    with pytest.raises(DegenerateInputError, match="double range"):
        track_roots(fam, Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5))


def test_base_roots_tiny():
    # y^3 - 2e-120: a relative scale is needed to keep three distinct roots
    fam = RootFamily.build([[-2 * Fraction(1, 10**120)], [0], [0], [1]])
    roots = base_roots(fam, 0)
    assert len(roots) == 3
    for y in roots:
        assert abs(abs(y) / (mp.cbrt(2) * mp.mpf(10) ** -40) - 1) < mp.mpf(10) ** -30


def test_loop_validation():
    fam = RootFamily.build([[0, 0, -1], [0], [1]])  # y^2 - x^2: sing at 0 only? disc 4x^2
    loop = Loop(base=mp.mpc(2), center=mp.mpc("0.1"), radius=0.5)
    with pytest.raises(DegenerateInputError):
        track_roots(fam, loop)


def tab2_matrices():
    return tuple(Mat2.of(rows, scale) for rows, scale in models.LOCAL_MONODROMIES)


def test_power_monodromy_table():
    m0, m1, minf = tab2_matrices()
    p0 = power_monodromy(m0, 6)
    assert p0 == Mat2.identity()
    p1 = power_monodromy(m1, 2)
    assert p1 == Mat2.of([[1, 2], [0, 1]])
    pinf = power_monodromy(minf, 6)
    assert pinf == Mat2.of([[-1, 0], [0, -1]])
    assert power_monodromy(m0, 0) == Mat2.identity()


def test_power_respects_det():
    m0, _, _ = tab2_matrices()
    # the scaled table matrices have determinant -1; powers follow exactly
    assert m0.det() == GaussInt.of(-1)
    assert power_monodromy(m0, 5).det() == GaussInt.of(-1)
    assert power_monodromy(m0, 6).det() == GaussInt.of(1)


def test_classify_kodaira_table():
    m0, m1, minf = tab2_matrices()
    assert classify_kodaira(power_monodromy(m0, 6)) == "I0"
    assert classify_kodaira(power_monodromy(m1, 2)) == "I2"
    assert classify_kodaira(power_monodromy(minf, 6)) == "I0*"


def test_classify_kodaira_elliptic_types():
    assert classify_kodaira(Mat2.of([[1, 1], [-1, 0]])) == "II"
    assert classify_kodaira(Mat2.of([[0, -1], [1, 1]])) == "II*"
    assert classify_kodaira(Mat2.of([[0, 1], [-1, 0]])) == "III"
    assert classify_kodaira(Mat2.of([[0, -1], [1, 0]])) == "III*"
    assert classify_kodaira(Mat2.of([[0, 1], [-1, -1]])) == "IV"
    assert classify_kodaira(Mat2.of([[-1, -1], [1, 0]])) == "IV*"


def test_classify_kodaira_errors():
    with pytest.raises(DegenerateInputError):
        classify_kodaira(Mat2.of([[2, 0], [0, 1]]))  # det 2
    with pytest.raises(DegenerateInputError):
        classify_kodaira(Mat2.of([[2, 1], [1, 1]]))  # trace 3
    with pytest.raises(DegenerateInputError):
        classify_kodaira(tab2_matrices()[0])  # non-integer entries


def _random_sl2(rng, steps=8):
    S = Mat2.of([[0, -1], [1, 0]])
    T = Mat2.of([[1, 1], [0, 1]])
    Tinv = Mat2.of([[1, -1], [0, 1]])
    m = Mat2.identity()
    for _ in range(steps):
        m = m * rng.choice([S, T, Tinv])
    return m


def test_classify_conjugation_invariance():
    rng = random.Random(17)
    samples = [
        Mat2.of([[1, 3], [0, 1]]),
        Mat2.of([[1, 0], [-2, 1]]),
        Mat2.of([[-1, 5], [0, -1]]),
        Mat2.of([[1, 1], [-1, 0]]),
        Mat2.of([[0, 1], [-1, 0]]),
        Mat2.of([[0, 1], [-1, -1]]),
        Mat2.of([[0, -1], [1, 1]]),
        Mat2.identity(),
        Mat2.of([[-1, 0], [0, -1]]),
    ]
    checked = 0
    for m in samples:
        base = classify_kodaira(m)
        for _ in range(12):
            p = _random_sl2(rng)
            q = _random_sl2(rng)
            pinv = _sl2_inverse(p)
            conj = p * m * pinv
            assert classify_kodaira(conj) == base
            checked += 1
    assert checked >= 100


def _sl2_inverse(m):
    return Mat2(m.d, -m.b, -m.c, m.a)


def test_compose_and_group_order():
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert compose(a, a) == (0, 1, 2)
    assert group_order([a, b]) == 6


def test_base_point_at_centre_rejected():
    fam = sqrt_family()
    with pytest.raises(DegenerateInputError, match="base point") as err:
        track_roots(fam, Loop(base=0.5, center=0.5, radius=0.1))
    assert "base" in err.value.context
    with pytest.raises(DegenerateInputError, match="base point") as err:
        track_loop_at_infinity(fam, 0, 4.0)
    assert "base" in err.value.context


def test_nonpositive_radius_rejected_before_tracking(monkeypatch):
    monkeypatch.setattr(monodromy, "_continue_along", None)  # tracking would raise TypeError
    fam = sqrt_family()
    cubic = RootFamily.build([[-1], [0], [0], [1]])  # y^3 - 1: no singular values
    for radius in (0, -0.5, mp.mpf(-1) / 4):
        with pytest.raises(DegenerateInputError, match="radius must be positive"):
            track_roots(fam, Loop(base=mp.mpc(2), center=mp.mpc(0), radius=radius))
        with pytest.raises(DegenerateInputError, match="radius must be positive"):
            track_loop_at_infinity(cubic, 1, radius)


def test_invalid_initial_step_rejected_before_tracking(monkeypatch):
    # unchecked, inf never finishes a segment, -0.1 walks backwards into
    # "roots collide", nan fails the scale check and 0 would mean 1/8
    monkeypatch.setattr(monodromy, "_continue_along", None)  # tracking would raise TypeError
    fam = sqrt_family()
    cubic = RootFamily.build([[-1], [0], [0], [1]])  # y^3 - 1: no singular values
    loop = Loop(base=mp.mpc(2), center=mp.mpc(0), radius=0.5)
    bad = (math.inf, -0.1, math.nan, 0, mp.mpf("inf"), -mp.mpf(1) / 8, mp.mpf("1e-400"), "0.1", 1j)
    for step in bad:
        with pytest.raises(DegenerateInputError, match="initial step") as err:
            track_roots(fam, loop, initial_step=step)
        assert err.value.context["initial_step"] == str(step)
        with pytest.raises(DegenerateInputError, match="initial step"):
            track_loop_at_infinity(cubic, 1, 4.0, initial_step=step)
    # valid steps, mpf and Fraction included, pass the check and reach tracking
    for step in (None, 1 / 32, mp.mpf(1) / 32, Fraction(1, 32), 2):
        with pytest.raises(TypeError):
            track_roots(fam, loop, initial_step=step)
        with pytest.raises(TypeError):
            track_loop_at_infinity(cubic, 1, 4.0, initial_step=step)


# -- the memo of the double continuation ----------------------------------------


def _criterion_loops():
    """The two families of acceptance criterion 15 and its seven distinct
    loop centres, taken at 128 bits as there."""
    fams = [RootFamily.build(c) for c in models.DOUBLE_COVER_FAMILIES]
    with mp.workprec(128):
        centers = []
        for fam in fams:
            for v, _ in singular_parameters(fam, 128):
                if all(abs(v - u) >= 1e-6 for u in centers):
                    centers.append(v)
    assert len(centers) == 7
    return fams, centers


def _track_criterion_loops(fams, centers, prec, initial_step=None):
    """(permutation, residual) of criterion 15's 16 loops at prec bits: both
    families about each centre at radius 1e-4, then about infinity."""
    out = []
    with mp.workprec(prec):
        base = mp.mpc(-1) / 10
        sings = [singular_parameters(fam, prec) for fam in fams]
        for v in centers:
            loop = Loop(base=base, center=mp.mpc(v), radius=mp.mpf("1e-4"), margin=0.5)
            for fam in fams:
                out.append(track_roots(fam, loop, prec, initial_step, _singulars=sings[0] + sings[1]))
        for fam, sing in zip(fams, sings):
            out.append(track_loop_at_infinity(fam, base, 4.0, prec, initial_step, _singulars=sing))
    return out


def test_memo_changes_no_answer():
    # every (permutation, residual) read through a warm memo is the one a
    # fresh continuation gives; residuals compare as exact mpf values
    fams, centers = _criterion_loops()
    runs = [(128, None), (256, None), (128, mp.mpf(1) / 32), (256, mp.mpf(1) / 32)]
    cold = []
    for prec, step in runs:
        monodromy._continue_along.cache_clear()
        cold.append(_track_criterion_loops(fams, centers, prec, step))
    monodromy._continue_along.cache_clear()
    warm, hits = [], []
    for prec, step in runs:
        before = monodromy._continue_along.cache_info().hits
        warm.append(_track_criterion_loops(fams, centers, prec, step))
        hits.append(monodromy._continue_along.cache_info().hits - before)
    # the 256-bit runs reuse the 128-bit ones; another step is another key
    assert hits[0] == hits[2] == 0 and hits[1] >= 12 and hits[3] >= 12
    again = [_track_criterion_loops(fams, centers, p, s) for p, s in runs]
    assert monodromy._continue_along.cache_info().hits - sum(hits) == 4 * 16
    assert warm == cold
    assert again == cold


def test_resolution_check_runs_on_every_hit(monkeypatch):
    fams, centers = _criterion_loops()
    calls = _counting(monkeypatch, "_double_path")
    monodromy._continue_along.cache_clear()
    tracked = [_track_criterion_loops(fams, centers, prec) for prec in (128, 256, 256)]
    assert monodromy._continue_along.cache_info().hits >= 12 + 16
    assert len(calls) == sum(map(len, tracked)) == 48


def test_256_bit_tracks_reuse_128_bit_continuations():
    # guards the memo: criterion 15 tracks each loop at 128 and at 256 bits,
    # and at least 12 of its 16 tracks at 256 bits round to the same doubles
    fams, centers = _criterion_loops()
    monodromy._continue_along.cache_clear()
    for prec in (128, 256):
        _track_criterion_loops(fams, centers, prec)
    info = monodromy._continue_along.cache_info()
    assert info.maxsize == 64
    assert info.hits >= 12


# -- the prepared evaluator ----------------------------------------------------

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
shifted = st.tuples(st.integers(0, 13), st.lists(small_rationals, max_size=4)).map(
    lambda t: [0] * t[0] + t[1]
)
points = st.one_of(
    st.just(0j),
    st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)),
    st.builds(
        lambda r, th: r * complex(math.cos(th), math.sin(th)),
        st.floats(1e-3, 2.0),
        st.floats(0, 2 * math.pi),
    ),
)


@seed(1745)
@settings(max_examples=200, deadline=None)
@given(st.lists(shifted, min_size=1, max_size=3), points)
def test_prepared_evaluator_matches_horner(lower, x):
    # the shifted form x^v h(x) agrees with Horner on the full coefficient
    # lists to 2^-45 of the sum of the terms' moduli, for values and for
    # x-derivatives; zero polynomials, constants and shifts up to 13 included
    fam = RootFamily.build(lower + [[1]])
    vals, ders = monodromy._coeffs_at(fam._prepared, x)
    assert len(vals) == len(ders) == len(fam.coeffs)
    for c, val, der in zip(reversed(fam.coeffs), vals, ders):
        full = [complex(a) for a in c]
        want, dwant = monodromy._horner(full, x)
        size = sum(abs(a) * abs(x) ** i for i, a in enumerate(full))
        dsize = sum(i * abs(a) * abs(x) ** (i - 1) for i, a in enumerate(full) if i)
        assert abs(val - want) <= 2.0**-45 * size
        assert abs(der - dwant) <= 2.0**-45 * dsize


def test_prepared_evaluator_is_lazy():
    fam = RootFamily.build(FAMILY_A)
    singular_parameters(fam)
    assert "_prepared" not in fam.__dict__
    # y^0 coefficient -2x^11 - 2x^13 is x^11 (-2 - 2x^2): three Horner terms
    assert fam._prepared == ((0, [1]), (4, [-0.25]), (0, []), (11, [-2, 0, -2]))


# -- double-precision certificates ---------------------------------------------


def _double_path_exact(points):
    """``monodromy._double_path`` with every segment compared in mpmath."""
    out = [complex(p) for p in points]
    for k in range(len(points) - 1):
        exact = points[k + 1] - points[k]
        if abs((out[k + 1] - out[k]) - exact) > monodromy._PATH_TOL * abs(exact):
            raise DegenerateInputError(
                "the path is not resolved in double precision", segment=float(abs(exact))
            )
    return out


def _validate_loop_exact(loop, singulars):
    """``monodromy._validate_loop`` with every singular value compared in mpmath."""
    base = mp.mpc(loop.base)
    center = mp.mpc(loop.center)
    r = mp.mpf(loop.radius)
    guard = r * (1 + loop.margin)
    start = center + r * (base - center) / abs(base - center)
    for s, _ in singulars:
        if abs(s - center) <= r:
            if abs(s - center) <= mp.mpf(2) ** -20 * max(1, abs(center)):
                continue
            raise DegenerateInputError("loop encircles more than one singular value")
        if monodromy._seg_distance(s, base, start) < guard or abs(abs(s - center) - r) < guard:
            raise DegenerateInputError("singular value too close to the loop path")


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except DegenerateInputError as err:
        return ("raised", err.message)


def _counting(monkeypatch, name):
    calls = []
    check = getattr(monodromy, name)
    monkeypatch.setattr(monodromy, name, lambda *a: calls.append(a) or check(*a))
    return calls


def _sample_loops(rng):
    """Loops with random singular values, and with singular values placed at
    guard * (1 +- 1e-12) from the circle and from the entry segment, and at
    the encircled-value threshold 2^-20 max(1, |centre|) * (1 +- 1e-12)."""
    near = (1 - mp.mpf("1e-12"), 1 + mp.mpf("1e-12"))
    for _ in range(40):
        center = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        base = center + mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r = mp.mpf(10) ** rng.uniform(-15, 0)
        loop = Loop(base=base, center=center, radius=r, margin=0.5)
        start = monodromy._circle_path(base, center, r, 1)[1]
        guard = r * (1 + loop.margin)
        unit = (start - base) / abs(start - base)
        sings = [center]
        sings += [mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        for f in near:
            turn = mp.expj(rng.uniform(0, 2 * math.pi))
            sings.append(center + (r + guard * f) * turn)
            sings.append(base + rng.uniform(0, 0.5) * (start - base) + guard * f * 1j * unit)
            sings.append(center + mp.mpf(2) ** -20 * max(1, abs(center)) * f * turn)
        yield loop, start, sings


def test_validate_loop_certificates_match_exact(monkeypatch):
    calls = _counting(monkeypatch, "_check_singular")
    rng = random.Random(1733)
    outcomes, decided = set(), 0
    # below 48 bits mpmath's own rounding widens the certificates' slack
    for prec in (32, 53, 128, 256):
        with mp.workprec(prec):
            for loop, start, sings in _sample_loops(rng):
                for s in sings:
                    before = len(calls)
                    got = _outcome(monodromy._validate_loop, loop, [(s, 0)], start)
                    assert got == _outcome(_validate_loop_exact, loop, [(s, 0)])
                    outcomes.add(got)
                    decided += len(calls) == before
    # both answers occur, and both the certificates and mpmath decide some
    assert {o[0] for o in outcomes} == {"ok", "raised"}
    assert decided and calls


def test_double_path_certificates_match_exact(monkeypatch):
    calls = _counting(monkeypatch, "_check_segment")
    rng = random.Random(1734)
    outcomes, segments = set(), 0
    with mp.workprec(128):
        base = mp.mpc(-1) / 10
        paths = [
            monodromy._circle_path(base, mp.mpc(0, 1), mp.mpf(r), 1)
            for r in ("1e-4", "1e-13", "1e-14")
        ]
        for _ in range(60):
            center = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r = mp.mpf(10) ** rng.uniform(-16, -10) * abs(center)
            paths.append(monodromy._circle_path(base, center, r, rng.choice((1, -1))))
        for path in paths:
            got = _outcome(monodromy._double_path, path)
            assert got == _outcome(_double_path_exact, path)
            outcomes.add(got[0])
            segments += len(path) - 1
    assert outcomes == {"ok", "raised"}
    assert 0 < len(calls) < segments


def test_criterion_loops_certified_in_double(monkeypatch):
    # the loops of acceptance criterion 15 send at most the encircled
    # singular value to mpmath, and no path segment
    fams = [RootFamily.build(c) for c in models.DOUBLE_COVER_FAMILIES]
    singular_calls = _counting(monkeypatch, "_check_singular")
    segment_calls = _counting(monkeypatch, "_check_segment")
    for prec in (128, 256):
        with mp.workprec(prec):
            base = mp.mpc(-1) / 10
            allsing = singular_parameters(fams[0], prec) + singular_parameters(fams[1], prec)
            for center, _ in allsing:
                loop = Loop(base=base, center=center, radius=mp.mpf("1e-4"), margin=0.5)
                for fam in fams:
                    singular_calls.clear()
                    track_roots(fam, loop, prec, _singulars=allsing)
                    assert len(singular_calls) <= 1
                    assert all(s == center for s, *_ in singular_calls)
            for fam in fams:
                track_loop_at_infinity(fam, base, 4.0, prec)
    assert segment_calls == []
