"""Modular parameters of lattice-polarized K3 fibres and their degenerations.

Everything is exact: parameters live in the fraction field of integer
polynomials over Q (``sympoly.ParamScalar``; every argument may be anything
``ParamScalar.of`` accepts), and the two j-invariants of a fibre are the
roots of j^2 - sigma*j + pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import exactlinalg as la
from .errors import DegenerateInputError
from .sympoly import ParamScalar

_SCALE = 12**6  # the j-invariant normalization constant


@dataclass(frozen=True)
class K3NormalForm:
    """The quartic normal-form data (a^3, b^2, d); only these powers appear."""

    a3: ParamScalar
    b2: ParamScalar
    d: ParamScalar


@dataclass(frozen=True)
class ModuliPoint:
    """pi = j1*j2 and sigma = j1 + j2 of the associated elliptic curve pair."""

    pi: ParamScalar
    sigma: ParamScalar


def normal_form_from_lambda(lams):
    """Normal form of an anticanonical K3 in the (1,1,4,6)-polar space.

    ``lams`` are the six coefficients (by index) of the hypersurface
    x0^12, x1^12, x2^2, x3^3, x0^6 x1^6, x0 x1 x2 x3.  Returns the two
    intermediate invariants and the normal form with d = 1.
    """
    l = [ParamScalar.of(x) for x in lams]
    if len(l) != 6:
        raise ValueError("six coefficients required")
    for check, name in (
        (l[5], "lambda5"),
        (l[4], "lambda4"),
        (l[2], "lambda2"),
        (l[3], "lambda3"),
    ):
        if check.is_zero():
            raise DegenerateInputError(f"vanishing coefficient {name}")
    big0 = l[2] ** 3 * l[3] ** 2 * l[4] / l[5] ** 6
    big1 = l[0] * l[1] / l[4] ** 2
    if big0.is_zero() or big1.is_zero():
        raise DegenerateInputError("vanishing invariant monomial")
    denom = big0**2 * big1 * _SCALE
    one = ParamScalar.of(1)
    a3 = one / denom
    b2 = (big0 * (6 * 12**2) - 1) ** 2 / denom
    return big0, big1, K3NormalForm(a3=a3, b2=b2, d=one)


def pi_sigma(nf):
    """Modular parameters from the normal form; needs d != 0."""
    if nf.d.is_zero():
        raise DegenerateInputError("normal form with d = 0")
    return ModuliPoint(pi=nf.a3 / nf.d, sigma=(nf.a3 - nf.b2 + nf.d) / nf.d)


def fibre_params_Y(u, v, xi0, xi1):
    """Fibre moduli of the complete-intersection model over its base [u : v]."""
    u, v, xi0, xi1 = map(ParamScalar.of, (u, v, xi0, xi1))
    base = u * v / ((u + v) ** 2)
    pi = base / (xi0 * _SCALE)
    sigma = 1 + (xi1 - 3 * 12**2 * xi1**2) / (xi0 * 12**3) * base
    return ModuliPoint(pi=pi, sigma=sigma)


def fibre_params_Z(s, t, B, psi0, psi1, psi_s):
    """Fibre moduli of the hypersurface model over its base [s : t]."""
    s, t, B, psi0, psi1, psi_s = map(ParamScalar.of, (s, t, B, psi0, psi1, psi_s))
    denom = B * s**2 - 2 * psi_s * s * t + B * t**2
    pi = psi0**12 / 2 * (s * t / denom)
    sigma = 1 - 2 * (psi0**6 * psi1 + psi1**2) * (s * t / denom)
    return ModuliPoint(pi=pi, sigma=sigma)


def match_parameters(B, psi0, psi1):
    """The hypersurface-to-CI parameter dictionary (xi0, xi1)."""
    B, psi0, psi1 = map(ParamScalar.of, (B, psi0, psi1))
    if psi0.is_zero():
        raise DegenerateInputError("psi0 must be invertible")
    xi0 = 2 * B / ((12 * psi0**2) ** 6)
    xi1 = -4 * psi1 / ((12 * psi0**2) ** 3)
    return xi0, xi1


@dataclass(frozen=True)
class QuadraticRoots:
    """Roots of j^2 - sigma j + pi, exact when the discriminant is square."""

    roots: tuple | None
    sigma: ParamScalar
    pi: ParamScalar
    discriminant: ParamScalar


def j_invariants(mp):
    sigma, pi = mp.sigma, mp.pi
    disc = sigma**2 - 4 * pi
    if disc.is_zero():
        half = sigma / 2
        return QuadraticRoots((half, half), sigma, pi, disc)
    const = disc.as_fraction()
    r = None if const is None else _exact_sqrt(const)
    if r is not None:
        return QuadraticRoots(((sigma - r) / 2, (sigma + r) / 2), sigma, pi, disc)
    return QuadraticRoots(None, sigma, pi, disc)


def _exact_sqrt(q):
    """The nonnegative rational square root of q, or None when q has none."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


@dataclass(frozen=True)
class SingularFibreLocus:
    """Base points of the singular K3 fibres of the one-parameter family."""

    fixed: tuple  # always (0, -1, infinity-marker)
    pair: tuple | None  # (alpha, beta) when exact
    pair_sum: Fraction
    pair_product: Fraction

    def points(self):
        out = [Fraction(0), Fraction(-1)]
        if self.pair:
            out.extend(self.pair)
        out.append("inf")
        return out


def singular_fibre_locus(xi0):
    """The five singular base values {0, -1, alpha, beta, inf} for a rational xi0."""
    xi0 = Fraction(xi0)
    if xi0 == 0:
        raise DegenerateInputError("degenerate modulus xi0 = 0")
    q = _SCALE * xi0
    disc = 1 - q
    pair = None
    r = _exact_sqrt(disc)
    if r is not None:
        pair = ((2 - q + 2 * r) / q, (2 - q - 2 * r) / q)
    return SingularFibreLocus(
        fixed=(Fraction(0), Fraction(-1), "inf"),
        pair=pair,
        pair_sum=(4 - 2 * q) / q,
        pair_product=Fraction(1),
    )


def ade_subgraph(polytope, direction):
    """Components of the skeleton subgraph with same-sign pairing endpoints.

    Keeps an edge when the products of the pairings of its endpoints with
    ``direction`` is positive; returns connected components as tuples of
    boundary-point coordinates, largest first.
    """
    g = polytope.skeleton()

    def keep(edge):
        a, b = edge  # skeleton edges join two distinct points
        return la.dot(g.nodes[a], direction) * la.dot(g.nodes[b], direction) > 0

    comps = g.subgraph_components(keep)
    out = [tuple(g.nodes[i] for i in comp) for comp in comps]
    return sorted(out, key=lambda c: (-len(c), c))
