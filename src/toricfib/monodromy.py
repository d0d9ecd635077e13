"""Numeric monodromy of parametrized polynomial families, exactly seeded.

Roots of a univariate family f(y, x) are continued along loops in the x
plane with a predictor/corrector scheme: the predictor is the previous root,
the corrector is Newton iteration, and a step is accepted only when every
root moves less than 0.4 times the minimal pairwise root distance of the
previous step.  Discriminants are computed exactly; floats only enter in
root finding, at a user-chosen binary precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DegenerateInputError


# -- exact Gaussian rationals and 2x2 matrices --------------------------------


@dataclass(frozen=True)
class GaussRat:
    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        return cls(Fraction(x), Fraction(0))

    def __add__(self, o):
        o = GaussRat.of(o)
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-GaussRat.of(o))

    def __rsub__(self, o):
        return GaussRat.of(o) + (-self)

    def __mul__(self, o):
        o = GaussRat.of(o)
        return GaussRat(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GaussRat.of(o)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError
        return GaussRat(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def to_mpc(self):
        return mp.mpc(
            mp.mpf(self.re.numerator) / self.re.denominator,
            mp.mpf(self.im.numerator) / self.im.denominator,
        )

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1


ZERO = GaussRat(Fraction(0), Fraction(0))
ONE = GaussRat(Fraction(1), Fraction(0))


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Gaussian rationals."""

    a: GaussRat
    b: GaussRat
    c: GaussRat
    d: GaussRat

    @classmethod
    def of(cls, rows, scale=None):
        (a, b), (c, d) = rows
        m = cls(GaussRat.of(a), GaussRat.of(b), GaussRat.of(c), GaussRat.of(d))
        if scale is not None:
            s = GaussRat.of(scale)
            m = Mat2(m.a * s, m.b * s, m.c * s, m.d * s)
        return m

    def __mul__(self, o):
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls):
        return cls(ONE, ZERO, ZERO, ONE)

    def is_integer(self):
        return all(e.is_integer() for e in self.entries())


def power_monodromy(m, k):
    """Exact k-th matrix power, k >= 0."""
    if k < 0:
        raise ValueError("nonnegative powers only")
    out = Mat2.identity()
    for _ in range(k):
        out = out * m
    return out


def classify_kodaira(m):
    """Kodaira type of an integer SL(2, Z) local monodromy matrix.

    I is smooth (I0), -I is I0*; unipotent classes give I_n and I_n* with
    n the gcd of the off-diagonal data; the six finite-order elliptic classes
    are separated by the trace together with the rotation sense, read off the
    sign of the lower-left entry (negative for II/III/IV, positive for the
    starred types; this matches the usual normal-form representatives).
    """
    if not m.is_integer():
        raise DegenerateInputError("matrix entries must be rational integers")
    if m.det() != ONE:
        raise DegenerateInputError("determinant must be 1")
    a, b, c, d = (int(e.re) for e in m.entries())
    t = a + d
    if t == 2:
        from math import gcd

        n = gcd(gcd(abs(a - 1), abs(b)), gcd(abs(c), abs(d - 1)))
        return f"I{n}"
    if t == -2:
        from math import gcd

        n = gcd(gcd(abs(a + 1), abs(b)), gcd(abs(c), abs(d + 1)))
        return f"I{n}*"
    if t in (-1, 0, 1):
        base = {1: "II", 0: "III", -1: "IV"}[t]
        if c == 0:
            raise DegenerateInputError("elliptic matrix with zero rotation data")
        return base if c < 0 else base + "*"
    raise DegenerateInputError(
        "not a Kodaira local monodromy of finite type here", trace=t
    )


# -- univariate polynomials over Gaussian rationals ---------------------------


def _pnorm(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return list(p)


def _padd(p, q):
    n = max(len(p), len(q))
    return _pnorm(
        [
            (p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO)
            for i in range(n)
        ]
    )


def _pmul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _pnorm(out)


def _pscale(p, c):
    return _pnorm([a * c for a in p])


def _pdivmod(p, q):
    p = _pnorm(list(p))
    q = _pnorm(list(q))
    if not q:
        raise ZeroDivisionError
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    while p and len(p) >= len(q):
        c = p[-1] / q[-1]
        k = len(p) - len(q)
        quot[k] = c
        new = list(p)
        for i in range(len(q)):
            new[i + k] = new[i + k] - q[i] * c
        new.pop()  # the leading term cancels exactly
        p = _pnorm(new)
    return _pnorm(quot), p


def _pgcd(p, q):
    p, q = _pnorm(p), _pnorm(q)
    while q:
        _, r = _pdivmod(p, q)
        p, q = q, r
    if p:
        p = _pscale(p, ONE / p[-1])
    return p


def _pderiv(p):
    return _pnorm([p[i] * GaussRat.of(i) for i in range(1, len(p))])


def _pdet(mat):
    """Determinant of a matrix of polynomials by Laplace expansion with memo."""
    cols_all = tuple(range(len(mat)))
    memo = {}

    def det(rows, cols):
        if not rows:
            return [ONE]
        key = (rows, cols)
        if key in memo:
            return memo[key]
        r = rows[0]
        total = []
        for k, c in enumerate(cols):
            entry = mat[r][c]
            if not entry:
                continue
            sub = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = _pmul(entry, sub)
            if k % 2:
                term = _pscale(term, -ONE)
            total = _padd(total, term)
        memo[key] = total
        return total

    return det(cols_all, cols_all)


@dataclass(frozen=True)
class RootFamily:
    """f(y, x): polynomial in y whose coefficients are polynomials in x.

    ``coeffs[k]`` is the x-polynomial (ascending) multiplying y^k; the
    leading coefficient must not vanish identically.
    """

    coeffs: tuple  # per y-degree, tuple of GaussRat (ascending x powers)

    @classmethod
    def build(cls, coeffs):
        out = []
        for c in coeffs:
            out.append(tuple(GaussRat.of(x) for x in c))
        while out and not _pnorm(list(out[-1])):
            out.pop()
        if not out or len(out) == 1:
            raise DegenerateInputError("family must have positive degree in y")
        return cls(coeffs=tuple(out))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def y_poly_at(self, x):
        """Coefficients (ascending in y) at a numeric parameter value."""
        vals = []
        for c in self.coeffs:
            acc = mp.mpc(0)
            xp = mp.mpc(1)
            for a in c:
                acc += a.to_mpc() * xp
                xp *= x
            vals.append(acc)
        return vals

    def discriminant(self):
        """Exact discriminant in x via the Sylvester resultant of (f, df/dy)."""
        n = self.degree
        f = [list(c) for c in self.coeffs]
        fp = [
            _pscale(list(self.coeffs[k]), GaussRat.of(k)) for k in range(1, n + 1)
        ]
        rows = []
        size = 2 * n - 1
        for i in range(n - 1):
            row = [[] for _ in range(size)]
            for k in range(n + 1):
                row[i + k] = _pnorm(list(f[n - k]))
            rows.append(row)
        for i in range(n):
            row = [[] for _ in range(size)]
            for k in range(n):
                row[i + k] = _pnorm(list(fp[n - 1 - k]))
            rows.append(row)
        res = _pdet(rows)
        return res


def _squarefree(p):
    d = _pderiv(p)
    if not d:
        return p
    g = _pgcd(p, d)
    if len(g) <= 1:
        return p
    q, r = _pdivmod(p, g)
    assert not r
    return q


def _distinct_roots(poly, prec):
    """Roots of the squarefree part, as mpc values at the given precision."""
    sf = _squarefree(poly)
    deg = len(sf) - 1
    if deg <= 0:
        return []
    with mp.workprec(prec + 40):
        coeffs = [c.to_mpc() for c in reversed(sf)]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=80)
    return [mp.mpc(r) for r in roots]


def singular_parameters(family, prec=128):
    """Finite singular parameter values with isolation radii.

    Returns a list of (value, radius) sorted by (re, im): zeros of the
    discriminant plus zeros of the leading coefficient.
    """
    disc = family.discriminant()
    if not disc:
        raise DegenerateInputError("non-reduced family: discriminant vanishes")
    vals = _distinct_roots(disc, prec)
    lc = _pnorm(list(family.coeffs[-1]))
    if len(lc) > 1:
        vals.extend(_distinct_roots(lc, prec))
    # dedupe numerically
    uniq = []
    for v in sorted(vals, key=lambda z: (mp.re(z), mp.im(z))):
        if not any(abs(v - u) < mp.mpf(2) ** (-prec // 2) for u in uniq):
            uniq.append(v)
    out = []
    for v in uniq:
        others = [abs(v - u) for u in uniq if u is not v]
        radius = min(others) / 2 if others else mp.mpf(1)
        out.append((v, radius))
    return out


@dataclass(frozen=True)
class Loop:
    """Anticlockwise circle about ``center`` entered by a segment from ``base``."""

    base: complex
    center: complex
    radius: float
    margin: float = 0.5


def _seg_distance(z, a, b):
    """Distance from point z to the segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(z - a)
    t = ((z - a) * mp.conj(ab)).real / denom
    t = max(0, min(1, t))
    return abs(z - (a + t * ab))


def _validate_loop(loop, singulars):
    base = mp.mpc(loop.base)
    center = mp.mpc(loop.center)
    r = mp.mpf(loop.radius)
    guard = r * (1 + loop.margin)
    start = center + r * (base - center) / abs(base - center)
    for s, _ in singulars:
        if abs(s - center) <= r:
            if abs(s - center) <= mp.mpf(2) ** -20 * max(1, abs(center)):
                continue  # the encircled singular value itself
            raise DegenerateInputError("loop encircles more than one singular value")
        if _seg_distance(s, base, start) < guard or abs(abs(s - center) - r) < guard:
            raise DegenerateInputError(
                "singular value too close to the loop path"
            )


def _horner(cs, z):
    """Value at z of the polynomial with ascending coefficients cs."""
    acc = mp.mpc(0)
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _newton(coeffs, y, prec):
    tol = mp.mpf(2) ** (-(prec - 8))
    deriv = [coeffs[k] * k for k in range(1, len(coeffs))]
    for _ in range(60):
        fy = _horner(coeffs, y)
        dy = _horner(deriv, y)
        if dy == 0:
            return None
        step = fy / dy
        y = y - step
        if abs(step) < tol * max(1, abs(y)):
            return y
    return None


def _min_pairwise(roots):
    m = None
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            m = d if m is None else min(m, d)
    return m if m is not None else mp.mpf("inf")


def _continue_along(family, roots, points, prec, initial_step=None):
    """Continue roots through the listed parameter values (piecewise linear)."""
    max_step = initial_step or mp.mpf(1) / 8
    for a, b in zip(points, points[1:]):
        t = mp.mpf(0)
        step = max_step
        while t < 1:
            dt = min(step, 1 - t)
            x = a + (t + dt) * (b - a)
            coeffs = family.y_poly_at(x)
            safety = mp.mpf("0.4") * _min_pairwise(roots)
            new_roots = []
            ok = True
            for y in roots:
                ny = _newton(coeffs, y, prec)
                if ny is None or abs(ny - y) >= safety:
                    ok = False
                    break
                new_roots.append(ny)
            if ok and _min_pairwise(new_roots) < mp.mpf(2) ** (-(prec - 12)):
                # two tracked roots collapsed onto one value
                ok = False
            if ok:
                roots = new_roots
                t += dt
                step = min(step * 2, max_step)
            else:
                step = step / 2
                if step < mp.mpf(2) ** (-48):
                    raise DegenerateInputError(
                        "continuation failed: roots collide along the path"
                    )
    return roots


def _circle_path(base, center, radius, sense, segments=24):
    """Base -> circle -> base: out along the ray from ``center`` through
    ``base``, once round the circle (sense +1 anticlockwise, -1 clockwise),
    and back."""
    w = base - center
    start = center + radius * w / abs(w)
    theta0 = mp.arg(start - center)
    pts = [base, start]
    for k in range(1, segments + 1):
        ang = theta0 + sense * (2 * mp.pi * k / segments)
        pts.append(center + radius * mp.mpc(mp.cos(ang), mp.sin(ang)))
    pts.append(base)
    return pts


def base_roots(family, base, prec=128):
    """Roots at the base point in canonical (re, im) order."""
    with mp.workprec(prec):
        coeffs = family.y_poly_at(mp.mpc(base))
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=80)
        return sorted((mp.mpc(r) for r in roots), key=lambda z: (mp.re(z), mp.im(z)))


def track_roots(family, loop, prec=128, initial_step=None, _singulars=None):
    """Permutation of the base roots induced by the loop.

    Returns (permutation, residual): permutation[i] = j means the i-th base
    root continues to the j-th (roots ordered by (re, im) at the base).
    """
    with mp.workprec(prec):
        singulars = _singulars or singular_parameters(family, prec)
        _validate_loop(loop, singulars)
        start = base_roots(family, loop.base, prec)
        pts = _circle_path(
            mp.mpc(loop.base), mp.mpc(loop.center), mp.mpf(loop.radius), 1
        )
        final = _continue_along(family, list(start), pts, prec, initial_step)
        coeffs = family.y_poly_at(mp.mpc(loop.base))
        residual = max(abs(_horner(coeffs, y)) for y in final)
        perm = _match(start, final)
        return perm, residual


def track_loop_at_infinity(family, base, radius, prec=128, initial_step=None, _singulars=None):
    """Anticlockwise loop about infinity: a clockwise circle exceeding all
    finite singular values."""
    with mp.workprec(prec):
        singulars = _singulars or singular_parameters(family, prec)
        for s, _ in singulars:
            if abs(s) >= radius / 2:
                raise DegenerateInputError("radius does not dominate singular values")
        b = mp.mpc(base)
        pts = _circle_path(b, mp.mpc(0), radius, -1)
        startr = base_roots(family, base, prec)
        final = _continue_along(family, list(startr), pts, prec, initial_step)
        coeffs = family.y_poly_at(b)
        residual = max(abs(_horner(coeffs, y)) for y in final)
        return _match(startr, final), residual


def _match(start, final):
    perm = []
    used = set()
    thresh = _min_pairwise(start) / 2
    for y in final:
        dists = sorted(range(len(start)), key=lambda j: abs(y - start[j]))
        j = dists[0]
        if j in used or abs(y - start[j]) > thresh:
            raise DegenerateInputError("could not match continued roots")
        used.add(j)
        perm.append(j)
    # perm as produced maps final slot i -> start index; invert so that
    # perm[i] = destination of start root i
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def cycle_type(perm):
    seen = set()
    sizes = []
    for i in range(len(perm)):
        if i in seen:
            continue
        n = 0
        j = i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        sizes.append(n)
    return tuple(sorted(sizes, reverse=True))


def compose(p, q):
    """First apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def group_order(perms):
    """Order of the permutation group generated by the given tuples."""
    if not perms:
        return 1
    n = len(perms[0])
    idp = tuple(range(n))
    seen = {idp}
    frontier = [idp]
    while frontier:
        g = frontier.pop()
        for h in perms:
            c = compose(g, h)
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return len(seen)
