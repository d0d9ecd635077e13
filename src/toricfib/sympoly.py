"""Sparse multivariate polynomials over an exact parameter field.

Coefficients lie in one field: fractions of integer-coefficient polynomials
in named parameters, over Q.  Fractions are reduced by integer and monomial
content only, read in one pass over the terms of numerator and denominator
together; equality is decided by cross multiplication, so the
representation need not be fully reduced, and scalars are unhashable.

Each job has one way in:
- a number or a parameter name becomes a scalar through ``ParamScalar.of``;
  ``ParamScalar(num, den)`` takes parameter polynomials only;
- variables are rescaled by the scalars of a ``pullback`` map, a monomial
  map with one scalar per variable;
- the coefficients of a polynomial in one variable come from
  ``SparsePoly.collect``.

Polynomials divide exactly with ``//``, so ``exactlinalg``'s Bareiss
elimination runs on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# a parameter monomial: tuple of (name, exponent) pairs, sorted by name
# a parameter polynomial (ppoly): dict monomial -> int coefficient


def _mono_key(m):
    return (sum(e for _, e in m), m)


def pp_const(c=1):
    c = int(c)
    return {(): c} if c else {}


def pp_var(name, exp=1):
    return {((name, exp),): 1}


def pp_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pp_neg(a):
    return {m: -c for m, c in a.items()}


def _mono_mul(m1, m2):
    exps = dict(m1)
    for n, e in m2:
        exps[n] = exps.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def pp_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2) if m1 and m2 else m1 or m2
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def pp_eval(a, env):
    out = Fraction(0)
    for m, c in a.items():
        v = Fraction(c)
        for n, e in m:
            v *= Fraction(env[n]) ** e
        out += v
    return out


def pp_render(a):
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=_mono_key, reverse=True):
        c = a[m]
        factors = [f"{n}^{e}" if e > 1 else n for n, e in m]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _normalize(num, den):
    """Reduce num/den by its integer and monomial content, read in one pass
    over the terms of both: the gcd of all coefficients, and each parameter's
    least exponent over all monomials.  Then make the leading coefficient of
    the reduced den positive."""
    if not num:
        return {}, pp_const(1)
    g = 0
    common = None  # parameter -> least exponent so far
    for poly in (num, den):
        for m, c in poly.items():
            g = gcd(g, c)
            if common is None:
                common = dict(m)
            elif common:
                common = {n: min(e, common[n]) for n, e in m if n in common}
    if common:
        # common parameters are in every monomial; dropping pairs keeps order
        def reduced(m):
            return tuple((n, e - common.get(n, 0)) for n, e in m if e != common.get(n))

        num = {reduced(m): c for m, c in num.items()}
        den = {reduced(m): c for m, c in den.items()}
    if den[max(den, key=_mono_key)] < 0:
        g = -g
    if g != 1:
        num = {m: c // g for m, c in num.items()}
        den = {m: c // g for m, c in den.items()}
    return num, den


def _scalar_op(op):
    """Lift the other operand with ParamScalar.of; defer when it is no scalar."""

    def lifted(self, other):
        try:
            other = ParamScalar.of(other)
        except TypeError:
            return NotImplemented
        return op(self, other)

    return lifted


class ParamScalar:
    """Fraction of integer parameter polynomials.

    Equality is by cross multiplication and the fraction is not fully
    reduced, so no hash agrees with equality: scalars are unhashable.
    """

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num, den=None):
        """num/den for parameter polynomials (dicts monomial -> int)."""
        if not isinstance(num, dict) or not isinstance(den, (dict, type(None))):
            raise TypeError(
                "ParamScalar takes parameter polynomials; "
                "lift numbers and names with ParamScalar.of"
            )
        if den is None:
            den = pp_const(1)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _normalize(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, x):
        """x as a scalar: a ParamScalar as is, an int or a Fraction as a
        constant, a str as the parameter of that name."""
        if isinstance(x, ParamScalar):
            return x
        if isinstance(x, int):
            return cls(pp_const(x))
        if isinstance(x, Fraction):
            return cls(pp_const(x.numerator), pp_const(x.denominator))
        if isinstance(x, str):
            return cls(pp_var(x))
        raise TypeError(f"cannot build scalar from {x!r}")

    # -- ring/field operations ----------------------------------------------

    @_scalar_op
    def __add__(self, other):
        num = pp_add(pp_mul(self.num, other.den), pp_mul(other.num, self.den))
        return ParamScalar(num, pp_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(pp_neg(self.num), self.den)

    @_scalar_op
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_scalar_op
    def __mul__(self, other):
        return ParamScalar(pp_mul(self.num, other.num), pp_mul(self.den, other.den))

    __rmul__ = __mul__

    @_scalar_op
    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return ParamScalar(pp_mul(self.num, other.den), pp_mul(self.den, other.num))

    @_scalar_op
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, k):
        if k < 0:
            return ParamScalar.of(1) / (self ** (-k))
        out = ParamScalar.of(1)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self):
        return not self.num

    @_scalar_op
    def __eq__(self, other):
        return pp_mul(self.num, other.den) == pp_mul(other.num, self.den)

    def evaluate(self, env):
        return pp_eval(self.num, env) / pp_eval(self.den, env)

    def as_fraction(self):
        """The value as a Fraction when the scalar is constant, else None."""
        if all(m == () for m in self.num) and all(m == () for m in self.den):
            return Fraction(self.num.get((), 0), self.den.get((), 1))
        return None

    def render(self):
        if self.is_zero():
            return "0"
        n = pp_render(self.num)
        if self.den == pp_const(1):
            return n
        d = pp_render(self.den)
        if len(self.num) == 1 and set(self.den) == {()}:
            ((mono, c),) = self.num.items()
            if mono:  # one monomial over an integer: (c/d)*mono
                sign = "-" if c < 0 else ""
                return f"{sign}({abs(c)}/{d})*{pp_render({mono: 1})}"
        if len(self.num) > 1:
            n = f"({n})"
        if len(self.den) > 1 or "*" in d:  # a sum, or a product of factors
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"ParamScalar({self.render()})"


class SparsePoly:
    """Polynomial in named variables with ParamScalar coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = tuple(ring)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.ring):
                raise ValueError("exponent tuple does not match ring")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            coeff = ParamScalar.of(coeff)
            if coeff.is_zero():
                continue
            clean[exps] = coeff
        self.terms = clean

    # -- helpers -------------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def variable(cls, ring, name):
        exps = tuple(1 if v == name else 0 for v in ring)
        if sum(exps) != 1:
            raise KeyError(name)
        return cls(ring, {exps: 1})

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {tuple(0 for _ in ring): c})

    def monomial(self, **exps):
        e = [0] * len(self.ring)
        for name, k in exps.items():
            e[self.ring.index(name)] = k
        return tuple(e)

    def __bool__(self):
        return bool(self.terms)

    def _lift(self, other):
        """other as a polynomial of this ring; a number becomes a constant."""
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.ring, other)
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        return other

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except (TypeError, ValueError):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        zero = ParamScalar.of(0)
        return all(
            self.terms.get(k, zero) == other.terms.get(k, zero) for k in keys
        )

    def __hash__(self):
        raise TypeError("SparsePoly is unhashable")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        terms = dict(self.terms)
        zero = ParamScalar.of(0)
        for e, c in other.terms.items():
            s = terms.get(e, zero) + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return SparsePoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = ParamScalar.of(other)
            return SparsePoly(self.ring, {e: k * c for e, k in self.terms.items()})
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        terms = {}
        zero = ParamScalar.of(0)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, zero) + c1 * c2
                if s.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return SparsePoly(self.ring, terms)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """Exact quotient by leading terms in lex order; ArithmeticError on a
        remainder."""
        other = self._lift(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(other.terms)
        q, r = SparsePoly.zero(self.ring), self
        while r:
            top = max(r.terms)
            shift = tuple(a - b for a, b in zip(top, lead))
            if any(e < 0 for e in shift):
                raise ArithmeticError("inexact polynomial division")
            t = SparsePoly(self.ring, {shift: r.terms[top] / other.terms[lead]})
            q, r = q + t, r - t * other
        return q

    def __pow__(self, k):
        if k < 0:
            raise ValueError("nonnegative powers only")
        out = SparsePoly.constant(self.ring, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- structure -------------------------------------------------------------

    def degree(self, var):
        i = self.ring.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def monomial_coefficient(self, **exps):
        return self.terms.get(self.monomial(**exps), ParamScalar.of(0))

    def collect(self, var):
        """{k: the coefficient of var^k}, each a polynomial of this ring free of var."""
        i = self.ring.index(var)
        parts = {}
        for exps, c in self.terms.items():
            parts.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1 :]] = c
        return {k: SparsePoly(self.ring, t) for k, t in parts.items()}

    def _display_perm(self):
        """Variable indices in natural name order (y2 before y10)."""
        def key(i):
            name = self.ring[i]
            j = len(name)
            while j > 0 and name[j - 1].isdigit():
                j -= 1
            return (name[:j], int(name[j:]) if j < len(name) else -1)

        return sorted(range(len(self.ring)), key=key)

    def monomials(self):
        """Exponent tuples in descending graded-lex order (display variable order)."""
        perm = self._display_perm()
        return sorted(
            self.terms, key=lambda e: (sum(e), tuple(e[i] for i in perm)), reverse=True
        )

    def support_names(self):
        """Monomials as readable strings (no coefficients)."""
        return [self._mono_str(e) or "1" for e in self.monomials()]

    def _mono_str(self, exps):
        factors = []
        for i in self._display_perm():
            name, e = self.ring[i], exps[i]
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors)

    def substitute(self, bindings):
        """Exact expansion after replacing variables by polynomials of the ring."""
        polys = {}
        for name, val in bindings.items():
            if name not in self.ring:
                raise KeyError(f"unknown variable {name!r}")
            if not isinstance(val, SparsePoly):
                val = SparsePoly.constant(self.ring, val)
            polys[name] = val
        out = SparsePoly.zero(self.ring)
        powers = {name: {0: SparsePoly.constant(self.ring, 1)} for name in polys}
        for exps, coeff in self.terms.items():
            term = SparsePoly.constant(self.ring, coeff)
            rest = [0] * len(self.ring)
            for i, e in enumerate(exps):
                name = self.ring[i]
                if name in polys:
                    cache = powers[name]
                    if e not in cache:
                        below = max(k for k in cache if k <= e)
                        p = cache[below]
                        for _ in range(e - below):
                            p = p * polys[name]
                        cache[e] = p
                    term = term * cache[e]
                else:
                    rest[i] = e
            term = term * SparsePoly(self.ring, {tuple(rest): 1})
            out = out + term
        return out

    def render(self):
        """Terms by descending degree; within a degree by descending sorted
        exponents, then display-order lex (z0^24*z16^12 before z0^12*z3^12*z16^12,
        an order no monomial order gives)."""
        if not self.terms:
            return "0"
        perm = self._display_perm()
        order = sorted(
            self.terms,
            key=lambda e: (sum(e), sorted(e, reverse=True), tuple(e[i] for i in perm)),
            reverse=True,
        )
        parts = []
        for exps in order:
            coeff = self.terms[exps]
            mono = self._mono_str(exps)
            c = coeff.render()
            if _needs_parens(c):
                sign, cbody = "+", f"({c})"
            elif c.startswith("-"):
                sign, cbody = "-", c[1:]
            else:
                sign, cbody = "+", c
            if not mono:
                body = cbody
            elif cbody == "1":
                body = mono
            else:
                body = f"{cbody}*{mono}"
            parts.append(f"{sign} {body}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def evaluate(self, var_env, param_env=None):
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            v = coeff.evaluate(param_env or {})
            for name, e in zip(self.ring, exps):
                v *= Fraction(var_env[name]) ** e
            total += v
        return total

    def __repr__(self):
        return f"SparsePoly({self.render()})"


def _needs_parens(s):
    return (" + " in s) or (" - " in s)


def pullback(poly, monomial_map, domain_ring):
    """Substitute each variable of ``poly`` by a scaled monomial of another ring.

    ``monomial_map`` sends a variable name of poly's ring to a pair
    (scalar, {domain variable -> exponent}).
    """
    out_terms = {}
    zero = ParamScalar.of(0)
    for exps, coeff in poly.terms.items():
        scalar = coeff
        e_out = [0] * len(domain_ring)
        for name, e in zip(poly.ring, exps):
            if e == 0:
                continue
            if name not in monomial_map:
                raise KeyError(f"unmapped variable {name!r}")
            factor, mono = monomial_map[name]
            scalar = scalar * ParamScalar.of(factor) ** e
            for dname, de in mono.items():
                e_out[domain_ring.index(dname)] += de * e
        key = tuple(e_out)
        s = out_terms.get(key, zero) + scalar
        if s.is_zero():
            out_terms.pop(key, None)
        else:
            out_terms[key] = s
    return SparsePoly(domain_ring, out_terms)


def pseudo_divide(f, g, var):
    """Pseudo-division in one variable: lc(g)^power * f = q*g + r, deg_var r < deg_var g.

    Each step cancels the leading var-term of r exactly, so its degree drops."""
    if f.ring != g.ring:
        raise ValueError("mixed rings")
    d = g.degree(var)
    if d <= 0:
        raise ValueError("divisor must have positive degree in the chosen variable")
    lc = g.collect(var)[d]
    x = SparsePoly.variable(f.ring, var)
    q = SparsePoly.zero(f.ring)
    r = f
    power = 0
    while r and r.degree(var) >= d:
        k = r.degree(var)
        lead = r.collect(var)[k] * x ** (k - d)
        q = lc * q + lead
        r = lc * r - lead * g
        power += 1
    return q, r, power
