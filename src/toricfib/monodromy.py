"""Numeric monodromy of parametrized polynomial families, exactly seeded.

Roots of a univariate family f(y, x) are continued along loops in the x
plane with a predictor/corrector scheme.  The predictor moves each root along
its tangent, y - (f_x / f_y) dx, with f_x from the x-derivatives of the
coefficients at the previous point and f_y from the last Newton iteration
there; the corrector is Newton iteration.  A step is accepted only when every
corrected root lies less than 0.4 times the minimal pairwise root distance of
the previous step from its previous value, and no two of them collapse.
Floats only enter in root finding.

Each family is prepared once for double-precision evaluation: every
y-coefficient is stored as c_k(x) = x^v h(x) with h(0) != 0, so one step
attempt costs one Horner pass over each h, giving the coefficients and their
x-derivatives together, and one power of x per shifted coefficient.  The
corrector's Horner passes in y run inline in the tracker.

The exact layer works over the smallest rings its callers need.  A family's
coefficients are rationals (``Fraction``).  Its discriminant in x is the
Sylvester resultant of f and df/dy: ``exactlinalg.det``, the package's one
Bareiss elimination, of a matrix of ``sympoly`` polynomials in x.  Local
monodromy matrices (``Mat2``) have Gaussian integer entries (``GaussInt``).

Precision policy: the path is tracked in IEEE double precision (Python
``complex``), whatever ``prec`` is.  Its Newton and collapse thresholds are
relative to the root scale max |y_i|, so tiny roots are tracked as safely as
roots of size one.  ``prec`` sets the binary precision of the base roots, of
the Newton refinement of the endpoints, of the residual and of the matching
of endpoints to base roots.  The base roots are found once per family, base
point and precision.  A root scale outside the normal double range, or a path
the double grid cannot resolve, raises ``DegenerateInputError``.  So tracking
a loop again at a higher ``prec`` re-checks the base roots, the refinement
and the matching at that precision, but follows the same double path;
tracking it again with a smaller ``initial_step`` is the independent check on
the path.  The double continuation is a pure function of the family, the
double start roots, the double path and the step, so it runs once per
distinct tuple of these: ``_continue_along`` keeps the last 64 in a memo.  A
loop tracked at 128 and then at 256 bits whose base roots and path round to
the same doubles is continued once.  The resolution check of the path still
runs on every call, on that call's exact points.

Certificates: the loop checks (``_validate_loop``: singular values off the
path and at most one inside it) and the resolution check of the double path
(``_double_path``) are decided in double first.  Rounding a point to double
moves it by at most 2^-53 of its modulus, so a comparison that clears its
threshold by ``_CERT_SLACK`` = 2^-40 times the moduli involved has the exact
comparison's outcome.  Only the cases no such bound settles are compared in
mpmath, so exactly the same inputs raise ``DegenerateInputError`` as with the
comparison in mpmath alone.  A base point at the circle's centre, a radius
that is not positive, or an ``initial_step`` that is not a positive finite
number is rejected before any tracking.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath as mp

from . import exactlinalg as la
from .errors import DegenerateInputError
from .sympoly import SparsePoly, pseudo_divide


# -- exact 2x2 matrices over the Gaussian integers ----------------------------


@dataclass(frozen=True)
class GaussInt:
    re: int
    im: int

    @classmethod
    def of(cls, x):
        """x as a Gaussian integer; raises unless both its parts are integers."""
        if isinstance(x, GaussInt):
            return x
        parts = (int(x.real), int(x.imag))
        if parts != (x.real, x.imag):
            raise DegenerateInputError("not a Gaussian integer", value=str(x))
        return cls(*parts)

    def __add__(self, o):
        return GaussInt(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __sub__(self, o):
        return GaussInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return GaussInt(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def is_integer(self):
        return self.im == 0


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over the Gaussian integers."""

    a: GaussInt
    b: GaussInt
    c: GaussInt
    d: GaussInt

    @classmethod
    def of(cls, rows, scale=1):
        return cls(*(GaussInt.of(e) * GaussInt.of(scale) for row in rows for e in row))

    def __mul__(self, o):
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls):
        return cls.of([[1, 0], [0, 1]])

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
    That entry c is never 0 there: c = 0 and det 1 force a = d = +-1, trace +-2.
    """
    if not m.is_integer():
        raise DegenerateInputError("matrix entries must be rational integers")
    if m.det() != GaussInt(1, 0):
        raise DegenerateInputError("determinant must be 1")
    a, b, c, d = (e.re for e in m.entries())
    t = a + d
    if t == 2:
        n = math.gcd(abs(a - 1), abs(b), abs(c), abs(d - 1))
        return f"I{n}"
    if t == -2:
        n = math.gcd(abs(a + 1), abs(b), abs(c), abs(d + 1))
        return f"I{n}*"
    if t in (-1, 0, 1):
        base = {1: "II", 0: "III", -1: "IV"}[t]
        return base if c < 0 else base + "*"
    raise DegenerateInputError(
        "not a Kodaira local monodromy of finite type here", trace=t
    )


# -- univariate polynomials over Q: ascending Fraction lists, or sympoly in x --


def _xpoly(coeffs):
    """The ascending coefficients as a polynomial in x."""
    return SparsePoly(("x",), {(k,): c for k, c in enumerate(coeffs)})


def _xcoeffs(p):
    """The ascending coefficients of a polynomial in x, as Fractions."""
    return tuple(p.monomial_coefficient(x=k).as_fraction() for k in range(p.degree("x") + 1))


@dataclass(frozen=True)
class RootFamily:
    """f(y, x): polynomial in y whose coefficients are polynomials in x.

    ``coeffs[k]`` is the x-polynomial (ascending) multiplying y^k; the
    leading coefficient must not vanish identically.
    """

    coeffs: tuple  # per y-degree, tuple of Fractions (ascending x powers)

    @classmethod
    def build(cls, coeffs):
        out = [tuple(map(Fraction, c)) for c in coeffs]
        while out and not any(out[-1]):
            out.pop()
        if len(out) < 2:
            raise DegenerateInputError("family must have positive degree in y")
        return cls(coeffs=tuple(out))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def y_poly_at(self, x):
        """Coefficients (ascending in y) at a numeric parameter value."""
        return [_horner(list(map(_mpf, c)), x)[0] for c in self.coeffs]

    @cached_property
    def discriminant(self):
        """Exact discriminant in x, ``la.det`` of the Sylvester matrix of (f, df/dy)
        over Q[x], computed once per family (a tuple of ascending coefficients)."""
        n = self.degree
        f = [_xpoly(c) for c in reversed(self.coeffs)]
        fp = [f[i] * (n - i) for i in range(n)]
        zero = _xpoly(())
        rows = [[zero] * i + f + [zero] * (n - 2 - i) for i in range(n - 1)]
        rows += [[zero] * i + fp + [zero] * (n - 1 - i) for i in range(n)]
        d = la.det(rows)
        return _xcoeffs(d) if d else ()

    @cached_property
    def _prepared(self):
        """The y-coefficients prepared for ``_coeffs_at``, highest y-degree
        first: c_k(x) = x^v h(x) with h(0) != 0, as the pair (v, coefficients
        of h in descending powers of x, as complex); the zero coefficient is
        (0, []).  Built on first use, once per family."""
        out = []
        for c in reversed(self.coeffs):
            c = _xcoeffs(_xpoly(c))  # no trailing zeros
            v = next((i for i, a in enumerate(c) if a), 0)
            out.append((v, [complex(a) for a in reversed(c[v:])]))
        return tuple(out)

    @cached_property
    def _singular_values(self):
        """``singular_parameters`` per precision, filled by that function."""
        return {}

    @cached_property
    def _base_points(self):
        """``_base_point`` per (base, precision), filled by that function."""
        return {}


def _mpf(q):
    """The rational q at the working precision."""
    return mp.mpf(q.numerator) / q.denominator


def _squarefree(p):
    """p over its monic gcd with dp/dx, by Euclid on ``pseudo_divide`` remainders
    made monic and one exact quotient; a constant p is its own squarefree part."""
    if p.degree("x") < 1:
        return p
    a, b = p, SparsePoly(p.ring, {(k - 1,): k * c for (k,), c in p.terms.items() if k})
    while b:
        b = b * (1 / b.monomial_coefficient(x=b.degree("x")))
        if b.degree("x") == 0:
            return p
        a, b = b, pseudo_divide(a, b, "x")[1]
    return p // a


def singular_parameters(family, prec=128):
    """Finite singular parameter values with isolation radii.

    Returns a list of (value, radius) sorted by (re, im): the distinct zeros
    of the discriminant and of the leading coefficient, found as the roots
    of the exact squarefree part of their product.  Values and radii are
    rounded to ``prec`` bits, whatever the caller's precision.  They are
    computed once per family and precision; each call returns a new list.
    """
    memo = family._singular_values
    if prec not in memo:
        disc = family.discriminant
        if not disc:
            raise DegenerateInputError("non-reduced family: discriminant vanishes")
        sf = _xcoeffs(_squarefree(_xpoly(disc) * _xpoly(family.coeffs[-1])))
        out = []
        if len(sf) > 1:
            with mp.workprec(prec + 40):
                roots = _polyroots(list(map(_mpf, sf)))
            with mp.workprec(prec):
                vals = sorted(map(mp.mpc, roots), key=_reim)
                for v in vals:
                    others = [abs(v - u) for u in vals if u is not v]
                    radius = min(others) / 2 if others else mp.mpf(1)
                    out.append((v, radius))
        memo[prec] = tuple(out)
    return list(memo[prec])


@dataclass(frozen=True)
class Loop:
    """Anticlockwise circle about ``center`` entered by a segment from ``base``."""

    base: complex
    center: complex
    radius: float
    margin: float = 0.5


def _seg_distance(z, a, b):
    """Distance from point z to the segment [a, b], in mpmath or in double."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(z - a)
    t = ((z - a) * ab.conjugate()).real / denom
    t = max(0, min(1, t))
    return abs(z - (a + t * ab))


# Relative slack of the double-precision certificates of ``_validate_loop``
# and ``_double_path``.  Rounding a point to double moves it by at most 2^-53
# of its modulus, and each decision rounds a few times more; 2^-40 covers that
# 2^13 times over, and mpmath's own rounding at 48 bits or more.  Parts that
# round to subnormal doubles add at most 2^-1074 each.
_CERT_SLACK = 2.0**-40
_CERT_TINY = 2.0**-1000


def _slack():
    """``_CERT_SLACK``, or more when the working precision is below 48 bits."""
    return max(_CERT_SLACK, 2.0 ** (8 - mp.mp.prec))


def _validate_loop(loop, singulars, start):
    """Raise unless the loop's circle encircles no singular value but one at
    its centre, and every other one keeps guard = (1 + margin) r away from the
    circle and from the entry segment [base, start].

    Each singular value is decided in double first.  Every double here is
    within 2^-53 of its modulus of its exact value, and the distances to a
    point and to a segment move by at most as much as their ends, so a
    decision that clears its threshold by ``_slack()`` times the moduli
    involved is the exact one.  Only the values no certificate settles reach
    ``_check_singular``, the comparison in mpmath."""
    base = mp.mpc(loop.base)
    center = mp.mpc(loop.center)
    r = mp.mpf(loop.radius)
    guard = r * (1 + loop.margin)
    b, c, st = complex(base), complex(center), complex(start)
    rd, gd = float(r), float(guard)
    eta = _slack()
    scale = abs(b) + abs(c) + abs(st) + rd + gd
    inner = min(rd, 2.0**-20 * max(1.0, abs(c)))
    for s, _ in singulars:
        z = complex(s)
        err = eta * (abs(z) + scale) + _CERT_TINY
        d = abs(z - c)
        if d + err <= inner:
            continue  # the encircled singular value itself
        if d - err > rd + gd and _seg_distance(z, b, st) - err >= gd:
            continue
        _check_singular(s, base, center, r, guard, start)


def _check_singular(s, base, center, r, guard, start):
    """``_validate_loop``'s test of one singular value s, in mpmath."""
    if abs(s - center) <= r:
        if abs(s - center) <= mp.mpf(2) ** -20 * max(1, abs(center)):
            return  # the encircled singular value itself
        raise DegenerateInputError("loop encircles more than one singular value")
    if _seg_distance(s, base, start) < guard or abs(abs(s - center) - r) < guard:
        raise DegenerateInputError(
            "singular value too close to the loop path"
        )


def _horner(cs, z):
    """Value and first derivative at z of the polynomial with ascending
    coefficients cs, in one pass."""
    f = df = 0
    for c in reversed(cs):
        df = df * z + f
        f = f * z + c
    return f, df


def _newton(coeffs, y, tol):
    """Newton's method from y: (root, df/dy of the last iteration), or None
    unless a step of at most tol is reached within 60 iterations."""
    for _ in range(60):
        fy, dy = _horner(coeffs, y)
        if dy == 0:
            return None
        step = fy / dy
        y = y - step
        if abs(step) <= tol:
            return y, dy
    return None


def _min_pairwise(roots):
    m = None
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            m = d if m is None else min(m, d)
    return m if m is not None else math.inf


# Double-precision thresholds, relative to the root scale max |y_i|: Newton
# stops at a step of 2^-(53-8) of it, and two roots closer than 2^-(53-12)
# of it have collapsed onto one value.
_NEWTON_TOL = 2.0**-45
_COLLAPSE = 2.0**-41
# Bounds on log2 of |leading coefficient| * scale^degree, the size of f's
# terms near its roots: its roundoff 2^-53 * size stays a normal double, and
# the size stays 2^53 below overflow.
_SIZE_LOG2 = (-1022 + 53, 1024 - 53)
# Segments of a loop's circle in ``_circle_path``.
_SEGMENTS = 24
# Each segment of the path in double precision must match the exact segment
# to this fraction of its length.  On a loop's circle of 24 segments that keeps
# every vertex within 0.5 % of the radius of the exact one, far inside the
# singular-value margin ``_validate_loop`` enforces, so the double path winds
# round the same singular values; it fails for radii below a few times 1e-14
# times the modulus of the centre.
_PATH_TOL = 2.0**-6


def _double_path(points):
    """The path as Python complex values; raises when rounding to double
    moves a segment by more than ``_PATH_TOL`` of its length.

    Rounding moves a segment by at most 2^-52 of its ends' moduli, so a
    segment longer than (1 + 1 / ``_PATH_TOL``) ``_slack()`` times the sum of
    those moduli is resolved; only the others reach ``_check_segment``, the
    comparison in mpmath."""
    out = [complex(p) for p in points]
    eta = _slack()
    for k in range(len(points) - 1):
        a, b = out[k], out[k + 1]
        err = eta * (abs(a) + abs(b)) + _CERT_TINY
        if not _PATH_TOL * (abs(b - a) - err) >= err:
            _check_segment(points[k], points[k + 1], a, b)
    return out


def _check_segment(p, q, a, b):
    """``_double_path``'s test of the segment [p, q] rounded to [a, b], in mpmath."""
    exact = q - p
    if abs((b - a) - exact) > _PATH_TOL * abs(exact):
        raise DegenerateInputError(
            "the path is not resolved in double precision", segment=float(abs(exact))
        )


def _check_scale(lead, scale, degree):
    """Raise unless f's terms near roots of the given scale fit ``_SIZE_LOG2``."""
    if lead != 0 and 0 < scale < math.inf and math.isfinite(abs(lead)):
        size = math.log2(abs(lead)) + degree * math.log2(scale)
        if _SIZE_LOG2[0] <= size <= _SIZE_LOG2[1]:
            return
    raise DegenerateInputError("root scale outside the double range", scale=scale)


def _coeffs_at(prepared, x):
    """(values, x-derivatives) at the complex x of the y-coefficients that
    ``RootFamily._prepared`` holds, both highest y-degree first.  One Horner
    pass over each h gives h(x) and h'(x); then c = x^v h and
    c' = x^(v-1) (v h + x h'), so the x^v factor costs one power, not v
    Horner terms."""
    vals, ders = [], []
    for v, h in prepared:
        f = df = 0j
        for c in h:
            df = df * x + f
            f = f * x + c
        if v:
            p = x ** (v - 1)
            vals.append(p * x * f)
            ders.append(p * (v * f + x * df))
        else:
            vals.append(f)
            ders.append(df)
    return vals, ders


@lru_cache(maxsize=64)
def _continue_along(family, roots, points, max_step):
    """Continue the double roots through the double parameter values
    ``points`` (piecewise linear), in double precision: each step predicts
    the roots along their tangents and corrects them by Newton's method.  A
    step is at most ``max_step`` of a segment, and a step that follows a
    rejected one is not doubled.  Returns the roots at the last point, as a
    tuple.

    Each attempt evaluates the y-coefficients and their x-derivatives once,
    by ``_coeffs_at`` from ``RootFamily._prepared``; the corrector is
    ``_newton``'s iteration, inlined, and the tangents -f_x / f_y at accepted
    roots take f_y from its last iteration.

    The result is a pure function of the arguments in IEEE double
    arithmetic; the family enters only through ``_prepared``, which is
    derived from ``coeffs``, the field its equality and hash compare.  So the
    calls are memoized, and an exception, which is not cached, is raised
    again on every call.  Why 64 entries: a loop tracked at 128 bits comes
    back at 256 bits 16 continuations later in the ``monodromy-loops``
    benchmark pass, 32 later in acceptance criterion 15 and 44 later in
    ``tests/dump_monodromy.py``; 64 entries of about 1.5 KB each cover all
    three."""
    prepared = family._prepared
    degree = family.degree
    desc, ddesc = _coeffs_at(prepared, points[0])
    scale = max(map(abs, roots))
    _check_scale(desc[0], scale, degree)
    slopes = []
    for y in roots:
        f = df = 0
        for c in desc:
            df = df * y + f
            f = f * y + c
        slopes.append(df)
    sep = _min_pairwise(roots)
    tangents = None
    for a, b in zip(points, points[1:]):
        ab = b - a
        t, step, grow = 0.0, max_step, True
        while t < 1:
            if tangents is None:
                # dy/dx = -f_x / f_y at the roots last accepted
                tangents = []
                for y, fy in zip(roots, slopes):
                    fx = 0
                    for c in ddesc:
                        fx = fx * y + c
                    tangents.append(-fx / fy)
            dt = min(step, 1 - t)
            desc, dnext = _coeffs_at(prepared, a + (t + dt) * ab)
            _check_scale(desc[0], scale, degree)
            tol = _NEWTON_TOL * scale
            safety = 0.4 * sep
            dx = dt * ab
            new_roots, new_slopes = [], []
            for y, v in zip(roots, tangents):
                z = y + v * dx
                for _ in range(60):
                    f = df = 0
                    for c in desc:
                        df = df * z + f
                        f = f * z + c
                    if df == 0:
                        break
                    s = f / df
                    z = z - s
                    if abs(s) <= tol:
                        break
                else:
                    break  # no convergence within 60 iterations
                if df == 0 or abs(z - y) >= safety:
                    break
                new_roots.append(z)
                new_slopes.append(df)
            else:
                new_sep = _min_pairwise(new_roots)
                # otherwise two tracked roots collapsed onto one value
                if new_sep >= _COLLAPSE * scale:
                    roots, sep, slopes, ddesc = new_roots, new_sep, new_slopes, dnext
                    scale = max(map(abs, roots))
                    tangents = None
                    t += dt
                    if grow:
                        step = min(step * 2, max_step)
                    grow = True
                    continue
            step = step / 2
            grow = False
            if step < 2.0**-48:
                raise DegenerateInputError(
                    "continuation failed: roots collide along the path"
                )
    return tuple(roots)


def _refine(coeffs, roots, prec):
    """Newton-refine roots of the polynomial with ascending coefficients
    ``coeffs`` at prec bits, with tolerances relative to the root scale;
    raises if they do not converge or collapse."""
    with mp.workprec(prec):
        ys = [mp.mpc(y) for y in roots]
        scale = max(abs(y) for y in ys)
        out = []
        for y in ys:
            got = _newton(coeffs, y, mp.mpf(2) ** (-(prec - 8)) * scale)
            if got is None:
                raise DegenerateInputError("endpoint refinement did not converge")
            out.append(got[0])
        if _min_pairwise(out) < mp.mpf(2) ** (-(prec - 12)) * scale:
            raise DegenerateInputError("refined endpoints collapse onto one root")
        return out


def _circle_path(base, center, radius, sense):
    """Base -> circle -> base: out along the ray from ``center`` through
    ``base``, once round the circle (sense +1 anticlockwise, -1 clockwise),
    and back.  The circle's points turn the first one about ``center`` by
    repeated multiplication with one rotation exp(2 pi i sense / _SEGMENTS).
    Raises unless the radius is positive and the base is not the centre."""
    if not radius > 0:
        raise DegenerateInputError("loop radius must be positive", radius=str(radius))
    w = base - center
    if w == 0:
        raise DegenerateInputError(
            "the base point is the centre of the loop's circle", base=str(base)
        )
    z = radius * w / abs(w)
    turn = mp.expjpi(mp.mpf(2 * sense) / _SEGMENTS)
    pts = [base, center + z]
    for _ in range(_SEGMENTS):
        z *= turn
        pts.append(center + z)
    pts.append(base)
    return pts


def _polyroots(coeffs):
    """Roots of the polynomial with ascending coefficients.

    ``mp.polyroots`` tests convergence in absolute terms, so y is first
    rescaled by the power of two just above the root bound
    max_k |c_k / c_n|^(1/(n-k)); powers of two scale exactly."""
    n = len(coeffs) - 1
    lead = coeffs[n]
    bound = max(
        (abs(c / lead) ** (mp.mpf(1) / (n - k)) for k, c in enumerate(coeffs[:n]) if c),
        default=0,
    )
    e = mp.frexp(bound)[1] if bound else 0
    scaled = [c * mp.mpf(2) ** (e * (k - n)) for k, c in enumerate(coeffs)]
    roots = mp.polyroots(list(reversed(scaled)), maxsteps=200, extraprec=80)
    return [mp.mpc(r) * mp.mpf(2) ** e for r in roots]


def _reim(z):
    return (mp.re(z), mp.im(z))


def _base_point(family, base, prec):
    """(y-coefficients, roots in canonical (re, im) order) of f at the base
    point, both at prec bits; computed once per family, base and precision."""
    with mp.workprec(prec):
        key = (mp.mpc(base), prec)
        memo = family._base_points
        if key not in memo:
            coeffs = tuple(family.y_poly_at(key[0]))
            memo[key] = (coeffs, tuple(sorted(_polyroots(coeffs), key=_reim)))
        return memo[key]


def base_roots(family, base, prec=128):
    """Roots at the base point in canonical (re, im) order, as a new list."""
    return list(_base_point(family, base, prec)[1])


def _max_step(initial_step):
    """``initial_step`` as a double, 1/8 for None; raises unless it is None
    or a positive real number that is finite and nonzero in double."""
    if initial_step is None:
        return 1 / 8
    if isinstance(initial_step, numbers.Real) and 0 < float(initial_step) < math.inf:
        return float(initial_step)
    raise DegenerateInputError(
        "initial step must be a positive finite number", initial_step=str(initial_step)
    )


def _track(family, base, points, prec, max_step):
    """(permutation, residual) of the base roots continued along points,
    which start and end at base: the path in double, through the memo of
    ``_continue_along``, the endpoints refined at prec bits.  The resolution
    check of the double path runs on every call."""
    coeffs, start = _base_point(family, base, prec)
    path = tuple(_double_path(points))
    ends = _continue_along(family, tuple(map(complex, start)), path, max_step)
    final = _refine(coeffs, ends, prec)
    residual = max(abs(_horner(coeffs, y)[0]) for y in final)
    return _match(start, final), residual


def track_roots(family, loop, prec=128, initial_step=None, _singulars=None):
    """Permutation of the base roots induced by the loop.

    Returns (permutation, residual): permutation[i] = j means the i-th base
    root continues to the j-th (roots ordered by (re, im) at the base).

    The path is tracked in double precision, each step predicting the roots
    along their tangents and correcting them by Newton's method, with
    thresholds relative to the root scale; ``prec`` is the precision of the
    base roots, of the Newton refinement of the endpoints, of the residual
    and of the matching.  ``initial_step`` is the largest step, as a fraction
    of a path segment (default 1/8).  An ``initial_step`` that is not None or
    a positive finite number, a radius that is not positive, or a base point
    at the centre raises ``DegenerateInputError`` before any tracking, as does
    a loop that ``_validate_loop`` rejects.

    The double continuation is pure, so it is memoized (``_continue_along``,
    64 entries): tracking the loop again at another ``prec`` reuses it when
    the base roots and the path round to the same doubles, and gives the
    same permutation and residual as a fresh continuation.
    """
    max_step = _max_step(initial_step)
    with mp.workprec(prec):
        singulars = _singulars or singular_parameters(family, prec)
        base = mp.mpc(loop.base)
        pts = _circle_path(base, mp.mpc(loop.center), mp.mpf(loop.radius), 1)
        _validate_loop(loop, singulars, pts[1])
        return _track(family, base, pts, prec, max_step)


def track_loop_at_infinity(family, base, radius, prec=128, initial_step=None, _singulars=None):
    """Anticlockwise loop about infinity: a clockwise circle about 0 exceeding
    all finite singular values.  Precision, and the checks of radius and base
    point, and of ``initial_step``, as in ``track_roots``."""
    max_step = _max_step(initial_step)
    with mp.workprec(prec):
        singulars = _singulars or singular_parameters(family, prec)
        b = mp.mpc(base)
        pts = _circle_path(b, mp.mpc(0), radius, -1)
        for s, _ in singulars:
            if abs(s) >= radius / 2:
                raise DegenerateInputError("radius does not dominate singular values")
        return _track(family, b, pts, prec, max_step)


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
