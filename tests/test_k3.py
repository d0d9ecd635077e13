import random
from fractions import Fraction

import pytest

from toricfib.errors import DegenerateInputError
from toricfib.k3 import (
    ade_subgraph,
    fibre_params_Y,
    fibre_params_Z,
    j_invariants,
    match_parameters,
    normal_form_from_lambda,
    pi_sigma,
    singular_fibre_locus,
    K3NormalForm,
)
from toricfib.sympoly import ParamScalar


def test_normal_form_all_ones():
    big0, big1, nf = normal_form_from_lambda([1] * 6)
    assert big0.as_fraction() == 1
    assert big1.as_fraction() == 1
    assert nf.a3.as_fraction() == Fraction(1, 12**6)
    assert nf.b2.as_fraction() == Fraction(863**2, 12**6)
    assert nf.d.as_fraction() == 1


def test_normal_form_symbolic():
    lams = [ParamScalar.of(f"l{i}") for i in range(6)]
    big0, big1, _ = normal_form_from_lambda(lams)
    assert big0 == lams[2] ** 3 * lams[3] ** 2 * lams[4] / lams[5] ** 6
    assert big1 == lams[0] * lams[1] / lams[4] ** 2


def test_normal_form_degenerate():
    with pytest.raises(DegenerateInputError):
        normal_form_from_lambda([1, 1, 1, 1, 0, 1])


def test_pi_sigma():
    _, _, nf = normal_form_from_lambda([1] * 6)
    mp = pi_sigma(nf)
    assert mp.pi.as_fraction() == Fraction(1, 12**6)
    assert mp.sigma.as_fraction() == 1 + Fraction(1 - 863**2, 12**6)


def test_pi_sigma_cancellation():
    a3 = ParamScalar.of("x")
    nf = K3NormalForm(a3=a3, b2=a3, d=ParamScalar.of(7))
    assert pi_sigma(nf).sigma.as_fraction() == 1


def test_pi_sigma_weighted_scaling_invariance():
    a3, b2, d = (ParamScalar.of(n) for n in ("p", "q", "r"))
    lam = ParamScalar.of("t")
    nf1 = K3NormalForm(a3=a3, b2=b2, d=d)
    nf2 = K3NormalForm(a3=lam**6 * a3, b2=lam**6 * b2, d=lam**6 * d)
    m1, m2 = pi_sigma(nf1), pi_sigma(nf2)
    assert m1.pi == m2.pi and m1.sigma == m2.sigma


def test_fibre_params_Y_special_point():
    mp = fibre_params_Y(1, 1, Fraction(1, 12**6), 0)
    assert mp.pi.as_fraction() == Fraction(1, 4)
    assert mp.sigma.as_fraction() == 1


def test_fibre_params_Y_zero_u():
    mp = fibre_params_Y(0, 1, Fraction(1, 12**6), 0)
    assert mp.pi.as_fraction() == 0
    assert mp.sigma.as_fraction() == 1


def test_fibre_params_Z_specialization():
    # setting the symmetric parameter to -B turns the denominator into B(s+t)^2
    s, t, B, psi0, psi1 = (ParamScalar.of(n) for n in ("s", "t", "B", "psi0", "psi1"))
    mp = fibre_params_Z(s, t, B, psi0, psi1, -B)
    expect = psi0**12 / (2 * B) * (s * t / ((s + t) ** 2))
    assert mp.pi == expect


def test_match_parameters_formulas():
    B, psi0, psi1 = (ParamScalar.of(n) for n in ("B", "psi0", "psi1"))
    xi0, xi1 = match_parameters(B, psi0, psi1)
    assert xi0 == 2 * B / ((12 * psi0**2) ** 6)
    assert xi1 == -4 * psi1 / ((12 * psi0**2) ** 3)
    # psi1 = 0 matches the one-parameter subfamilies
    _, xi1z = match_parameters(B, psi0, 0)
    assert xi1z.is_zero()


def test_matching_identity_symbolic():
    s, t, B, psi0, psi1 = (ParamScalar.of(n) for n in ("s", "t", "B", "psi0", "psi1"))
    xi0, xi1 = match_parameters(B, psi0, psi1)
    z = fibre_params_Z(s, t, B, psi0, psi1, -B)
    y = fibre_params_Y(s, t, xi0, xi1)
    assert y.pi == z.pi
    assert y.sigma == z.sigma


def test_matching_identity_random_points():
    random.seed(5)
    count = 0
    while count < 20:
        B = Fraction(random.randint(-20, 20), random.randint(1, 9))
        psi0 = Fraction(random.randint(-20, 20), random.randint(1, 9))
        psi1 = Fraction(random.randint(-20, 20), random.randint(1, 9))
        s = Fraction(random.randint(-20, 20), random.randint(1, 9))
        t = Fraction(random.randint(-20, 20), random.randint(1, 9))
        if 0 in (B, psi0) or s + t == 0 or s * t == 0:
            continue
        xi0, xi1 = match_parameters(B, psi0, psi1)
        z = fibre_params_Z(s, t, B, psi0, psi1, -B)
        y = fibre_params_Y(s, t, xi0, xi1)
        assert y.pi.as_fraction() == z.pi.as_fraction()
        assert y.sigma.as_fraction() == z.sigma.as_fraction()
        count += 1


def test_j_invariants_vieta():
    mp = fibre_params_Y(0, 1, Fraction(1, 12**6), 0)
    roots = j_invariants(mp).roots
    assert {r.as_fraction() for r in roots} == {0, 1}
    mp = fibre_params_Y(1, 1, Fraction(1, 12**6), 0)
    roots = j_invariants(mp).roots
    assert [r.as_fraction() for r in roots] == [Fraction(1, 2), Fraction(1, 2)]


def test_j_invariants_generic_symbolic():
    pi = ParamScalar.of("p")
    sigma = ParamScalar.of("s")
    from toricfib.k3 import ModuliPoint

    q = j_invariants(ModuliPoint(pi=pi, sigma=sigma))
    assert q.roots is None
    assert q.discriminant == sigma**2 - 4 * pi


def test_singular_fibre_locus_special():
    loc = singular_fibre_locus(Fraction(1, 12**6))
    assert loc.pair == (1, 1)
    assert loc.points()[:2] == [0, -1]
    assert loc.points()[-1] == "inf"


def test_singular_fibre_locus_symmetric_functions():
    random.seed(9)
    for _ in range(10):
        xi0 = Fraction(random.randint(1, 50), random.randint(1, 50))
        loc = singular_fibre_locus(xi0)
        q = Fraction(12**6) * xi0
        assert loc.pair_sum == (4 - 2 * q) / q
        assert loc.pair_product == 1
        if loc.pair:
            a, b = loc.pair
            assert a + b == loc.pair_sum
            assert a * b == 1


def test_ade_subgraph_components(ctx):
    P = ctx.k3_simplex.polar()
    comps = ade_subgraph(P, (1, 2, 3))
    assert len(comps) == 2
    comps_alt = ade_subgraph(P, (0, 1, 1))
    assert len(comps_alt) == 1
    assert ade_subgraph(P, (0, 0, 0)) == []


def test_ade_subgraph_sign_partition(ctx):
    P = ctx.k3_simplex.polar()
    d = (1, 2, 3)
    from toricfib import exactlinalg as la

    plus = ade_subgraph(P, d)
    nodes = {p for c in plus for p in c}
    _, boundary = P.lattice_points()
    nonzero = {p for p in boundary if la.dot(p, d) != 0}
    # components for d and -d cover the same node set here
    minus = ade_subgraph(P, tuple(-x for x in d))
    nodes_minus = {p for c in minus for p in c}
    assert nodes == nodes_minus
    assert nodes <= nonzero


def test_edge_interior_product_vanishes(ctx):
    # for the (1,1,4,6) simplex every edge pairs with a dual edge so that the
    # product of interior point counts is zero
    p = ctx.k3_simplex
    total = 0
    for e in p.faces(1):
        total += e.ninterior * p.dual_face(e).ninterior
    assert total == 0
