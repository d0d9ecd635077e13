from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfib import exactlinalg as la
from toricfib.sympoly import (
    ParamScalar,
    SparsePoly,
    pseudo_divide,
    pullback,
)


def test_scalar_basic_arithmetic():
    a = ParamScalar.of("b0")
    b = ParamScalar.of("b1")
    expr = (a + b) * (a - b)
    assert expr == a * a - b * b
    assert (a / b) * b == a


def test_scalar_rational():
    half = ParamScalar.of(Fraction(1, 2))
    third = ParamScalar.of(Fraction(1, 3))
    assert (half + third) == ParamScalar.of(Fraction(5, 6))
    assert (half * third).as_fraction() == Fraction(1, 6)


def test_scalar_render():
    a = ParamScalar.of("c")
    expr = a * a * 3 + ParamScalar.of("b0") - 1
    assert expr.render() == "3*c^2 + b0 - 1"
    assert (a / 24).render() == "(1/24)*c"
    assert (-a / 12).render() == "-(1/12)*c"
    assert ((a + 1) / 6).render() == "(c + 1)/6"
    assert ParamScalar.of(Fraction(1, 12)).render() == "1/12"
    # a one-monomial denominator with more than one factor keeps its parentheses
    b, psi0, psi1 = ParamScalar.of("B"), ParamScalar.of("psi0"), ParamScalar.of("psi1")
    assert (b / (1492992 * psi0**12)).render() == "B/(1492992*psi0^12)"
    assert (-psi1 / (432 * psi0**6)).render() == "-psi1/(432*psi0^6)"
    assert (1 / (2 * psi0)).render() == "1/(2*psi0)"
    assert (b / (psi0 * psi1)).render() == "B/(psi0*psi1)"
    assert (b / psi0**12).render() == "B/psi0^12"


def test_scalar_of():
    a = ParamScalar.of("a")
    assert ParamScalar.of(a) is a
    assert ParamScalar.of(3) == ParamScalar({(): 3})
    assert ParamScalar.of(Fraction(-1, 2)) == ParamScalar({(): -1}, {(): 2})
    assert ParamScalar.of("a") == ParamScalar({(("a", 1),): 1})
    for bad in (0.5, None, [1], SparsePoly.constant(("x",), 1)):
        with pytest.raises(TypeError):
            ParamScalar.of(bad)


def test_constructor_takes_parameter_polynomials_only():
    for num, den in ((1, None), (Fraction(1, 2), None), ({(): 1}, 2)):
        with pytest.raises(TypeError, match=r"ParamScalar\.of"):
            ParamScalar(num, den)


def test_fractions_are_accepted_wherever_ints_are():
    half = ParamScalar.of(Fraction(1, 2))
    ring = ("x", "y")
    p = SparsePoly(ring, {(1, 0): Fraction(1, 2)})
    assert p.monomial_coefficient(x=1) == half
    assert p.monomial_coefficient(y=1) == 0
    x = SparsePoly.variable(ring, "x")
    # a rescaling x -> x/2 is a pullback with a scalar
    assert pullback(x, {"x": (Fraction(1, 2), {"x": 1})}, ring) == p
    out = pullback(x, {"x": (Fraction(1, 2), {"y": 2})}, ring)
    assert out == SparsePoly(ring, {(0, 2): half})
    assert x * Fraction(1, 2) == p


def test_scalar_is_unhashable():
    a = ParamScalar.of("a")
    x, y = (a * a - 1) / (a - 1), a + 1
    assert x == y
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(TypeError):
        {x, y}


def test_scalar_defers_to_polynomials():
    ring = ("x",)
    p = SparsePoly.variable(ring, "x")
    c = ParamScalar.of("c")
    assert c * p == p * c
    assert c + p == p + c
    assert (c == p) is False
    assert (c == None) is False  # noqa: E711


def test_scalar_eval():
    a = ParamScalar.of("u")
    b = ParamScalar.of("v")
    expr = (a**2 + b) / (a - b)
    assert expr.evaluate({"u": 3, "v": 2}) == Fraction(11, 1)


scalars = st.integers(-4, 4)
polys = st.lists(st.tuples(scalars, st.integers(0, 3), st.integers(0, 3)), max_size=4)
RING = ("x", "y")


def _build(ts):
    p = SparsePoly.zero(RING)
    for c, e1, e2 in ts:
        p = p + SparsePoly(RING, {(e1, e2): c})
    return p


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(ta, tb, tc):
    a, b, c = _build(ta), _build(tb), _build(tc)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=120, deadline=None)
@given(polys)
def test_collect_round_trip(ts):
    p = _build(ts)
    for v in RING:
        parts = p.collect(v)
        x = SparsePoly.variable(RING, v)
        assert sum((c * x**k for k, c in parts.items()), SparsePoly.zero(RING)) == p
        assert all(c.degree(v) == 0 for c in parts.values())


@settings(max_examples=120, deadline=None)
@given(polys, polys)
def test_exact_division_inverts_multiplication(tp, tq):
    p, q = _build(tp), _build(tq)
    if not q:
        with pytest.raises(ZeroDivisionError):
            p // q
        return
    assert (p * q) // q == p


def test_exact_division_raises_on_remainder():
    x, y = (SparsePoly.variable(RING, v) for v in RING)
    with pytest.raises(ArithmeticError):
        (x * x + 1) // (x + 1)
    with pytest.raises(ArithmeticError):
        x // y
    with pytest.raises(ZeroDivisionError):
        x // 0
    with pytest.raises(ZeroDivisionError):
        x // SparsePoly.zero(RING)


def test_negative_power_raises():
    x = SparsePoly.variable(RING, "x")
    with pytest.raises(ValueError):
        (x + 1) ** -1


def test_zero_is_false_and_numbers_compare_as_constants():
    zero = SparsePoly.zero(RING)
    assert not zero and zero == 0
    assert SparsePoly.constant(RING, Fraction(1, 2)) == Fraction(1, 2)
    x = SparsePoly.variable(RING, "x")
    assert x and x != 0 and x != 1


@settings(max_examples=40, deadline=None)
@given(st.lists(polys, min_size=9, max_size=9))
def test_det_of_polynomial_matrix_matches_leibniz(entries):
    # zero entries are common here, so the elimination also swaps rows
    m = [[_build(t) for t in entries[3 * i : 3 * i + 3]] for i in range(3)]
    want = SparsePoly.zero(RING)
    for p in permutations(range(3)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        want = want + m[0][p[0]] * m[1][p[1]] * m[2][p[2]] * sign
    assert la.det(m) == want


def test_substitute_identity():
    ring = ("x", "y")
    p = SparsePoly(ring, {(2, 0): 1, (1, 1): 3, (0, 0): -2})
    out = p.substitute({"x": SparsePoly.variable(ring, "x")})
    assert out == p


def test_substitute_composition():
    ring = ("x", "y")
    p = SparsePoly(ring, {(2, 1): 1, (0, 2): -1})
    x, y = SparsePoly.variable(ring, "x"), SparsePoly.variable(ring, "y")
    s1 = {"x": x + y}
    s2 = {"y": y + SparsePoly.constant(ring, 2)}
    lhs = p.substitute(s1).substitute(s2)
    composed = {
        "x": (x + y).substitute(s2),
        "y": y + SparsePoly.constant(ring, 2),
    }
    rhs = p.substitute(composed)
    assert lhs == rhs


def test_chart_shift_substitution():
    # cubic-chart shift: support and coefficients after y8 -> y8+c, y9 -> y9+d+e*y8
    ring = ("y2", "y3", "y8", "y9")
    names = ["b0", "b3", "b2", "b6", "b8", "b1", "b5", "b7", "b4"]
    b = {n: ParamScalar.of(n) for n in names}
    P = SparsePoly(
        ring,
        {
            (0, 0, 3, 0): b["b0"],
            (2, 0, 0, 0): b["b3"],
            (0, 2, 0, 0): b["b2"],
            (0, 0, 2, 0): b["b6"],
            (0, 0, 1, 1): b["b8"],
            (0, 0, 0, 2): b["b1"],
            (0, 0, 1, 0): b["b5"],
            (0, 0, 0, 1): b["b7"],
            (0, 0, 0, 0): b["b4"],
        },
    )
    y8 = SparsePoly.variable(ring, "y8")
    y9 = SparsePoly.variable(ring, "y9")
    c = SparsePoly.constant(ring, ParamScalar.of("c"))
    d = SparsePoly.constant(ring, ParamScalar.of("d"))
    e = SparsePoly.constant(ring, ParamScalar.of("e"))
    shifted = P.substitute({"y8": y8 + c, "y9": y9 + d + e * y8})
    assert shifted.support_names() == [
        "y8^3",
        "y2^2",
        "y3^2",
        "y8^2",
        "y8*y9",
        "y9^2",
        "y8",
        "y9",
        "1",
    ]
    cc, dd, ee = (ParamScalar.of(n) for n in ("c", "d", "e"))
    bb = {n: ParamScalar.of(n) for n in names}
    assert shifted.monomial_coefficient(y8=2) == (
        ee**2 * bb["b1"] + 3 * cc * bb["b0"] + ee * bb["b8"] + bb["b6"]
    )
    assert shifted.monomial_coefficient(y9=1) == (
        2 * dd * bb["b1"] + cc * bb["b8"] + bb["b7"]
    )
    assert shifted.monomial_coefficient(y8=1) == (
        3 * cc**2 * bb["b0"]
        + 2 * dd * ee * bb["b1"]
        + cc * ee * bb["b8"]
        + 2 * cc * bb["b6"]
        + ee * bb["b7"]
        + dd * bb["b8"]
        + bb["b5"]
    )


def test_pullback_simple():
    src = ("u", "v")
    dst = ("x", "y", "z")
    p = SparsePoly(src, {(2, 0): 1, (0, 1): -3})
    out = pullback(
        p,
        {"u": (1, {"x": 1, "y": 2}), "v": (Fraction(1, 2), {"z": 3})},
        dst,
    )
    assert out == SparsePoly(
        dst, {(2, 4, 0): 1, (0, 0, 3): Fraction(-3, 2)}
    )


def test_pullback_identity():
    ring = ("x", "y")
    p = SparsePoly(ring, {(1, 2): 5, (0, 0): 1})
    out = pullback(p, {"x": (1, {"x": 1}), "y": (1, {"y": 1})}, ring)
    assert out == p


def test_pseudo_divide_exact():
    ring = ("x",)
    x = SparsePoly.variable(ring, "x")
    f = x * x - SparsePoly.constant(ring, 1)
    g = x - SparsePoly.constant(ring, 1)
    q, r, power = pseudo_divide(f, g, "x")
    assert not r
    assert power <= 2
    # certificate
    lc = SparsePoly.constant(ring, 1)
    assert (lc**power) * f == q * g + r


def test_pseudo_divide_self():
    ring = ("x", "y")
    f = SparsePoly(ring, {(2, 1): 3, (1, 0): -1})
    q, r, power = pseudo_divide(f, f, "x")
    assert not r


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(scalars, st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=5),
    st.lists(st.tuples(scalars, st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=4),
)
def test_pseudo_divide_certificate(tf, tg):
    ring = RING
    f, g = _build(tf), _build(tg)
    if g.degree("x") <= 0:
        with pytest.raises(ValueError):
            pseudo_divide(f, g, "x")
        return
    q, r, power = pseudo_divide(f, g, "x")
    i = ring.index("x")
    d = g.degree("x")
    lc = SparsePoly(
        ring,
        {
            tuple(0 if j == i else e for j, e in enumerate(exps)): c
            for exps, c in g.terms.items()
            if exps[i] == d
        },
    )
    assert (lc**power) * f == q * g + r
    assert not r or r.degree("x") < g.degree("x")
