"""Exact integer linear algebra on arbitrary-precision integers.

Vectors are tuples of ints and matrices are tuples of row tuples; everything
is immutable and pure.  These primitives (Hermite forms, kernels, saturation)
back all of the geometry layers.

Three eliminations serve them.  ``hermite_form`` is unimodular and returns
its transform; kernels, saturation and ``solve_exact`` need that certificate.
``independent_rows`` is a fraction-free row echelon with gcd-reduced rows and
no transform; ``rank`` and the start-up of ``dd.simplicial_facets`` need
only which rows it keeps.  ``_bareiss`` is Bareiss's fraction-free
Gauss-Jordan elimination of n rows of any width, pivoting in the first n
columns: ``det`` runs it on A alone, and ``scaled_inverse`` on [A | I] for
det A and adj A at once (``dd.simplicial_facets``, ``fibsearch``).  It
divides with ``//``: exact over ints and ``sympoly.SparsePoly``, not over
``Fraction`` (whose ``//`` floors).

Entry points that take a matrix or vector from outside (``hermite_form``,
``independent_rows``, ``rank``, ``kernel_basis``, ``right_kernel``,
``saturation``, ``solve_exact``) coerce it with ``mat``/``vec``, so lists and
numpy integer arrays are accepted.
Results are built directly as tuples of Python ints; none is passed through
``mat`` or ``vec`` on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import mul

Vec = tuple
Mat = tuple


def vec(it):
    return tuple(map(int, it))


def mat(rows):
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def is_zero(v):
    return all(x == 0 for x in v)


def dot(u, v):
    """Inner product.  ``map`` alone would stop at the shorter vector, so the
    lengths are checked first: a mismatch raises ValueError."""
    if len(u) != len(v):
        raise ValueError("dot of vectors of different lengths")
    return sum(map(mul, u, v))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg(v):
    return tuple(-a for a in v)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def vecmat(v, m):
    """Row vector times matrix."""
    if not m:
        return ()
    return tuple(sum(v[i] * m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def matmul(a, b):
    return tuple(vecmat(row, b) for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def gcd_vec(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v):
    """v divided by the gcd of its entries; direction is preserved.

    Raises ValueError on the zero vector, which has no primitive generator.
    """
    g = gcd_vec(v)
    if g == 0:
        raise ValueError("no primitive generator")
    return tuple(x // g for x in v)


def hermite_form(m):
    """Row-style Hermite normal form with transformation certificate.

    Returns (H, U) with U unimodular and U*m = H.  H is canonical: pivots are
    positive, entries above each pivot are reduced into [0, pivot), zero rows
    are at the bottom.
    """
    m = mat(m)
    if not m:
        raise ValueError("empty matrix")
    nrows = len(m)
    ncols = len(m[0])
    h = [list(r) for r in m]
    u = [list(r) for r in identity(nrows)]
    row = 0
    pivots = []
    for col in range(ncols):
        if row == nrows:
            break
        # clear the column below `row` by gcd steps
        while True:
            nz = [i for i in range(row, nrows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][col]))
            if i0 != row:
                h[row], h[i0] = h[i0], h[row]
                u[row], u[i0] = u[i0], u[row]
            done = True
            for i in range(row + 1, nrows):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    for j in range(ncols):
                        h[i][j] -= q * h[row][j]
                    for j in range(nrows):
                        u[i][j] -= q * u[row][j]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            pivots.append((row, col))
            row += 1
    # reduce entries above pivots, left to right so later columns stay reduced
    for prow, pcol in pivots:
        p = h[prow][pcol]
        for i in range(prow):
            q = h[i][pcol] // p
            if q:
                for j in range(ncols):
                    h[i][j] -= q * h[prow][j]
                for j in range(nrows):
                    u[i][j] -= q * u[prow][j]
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def independent_rows(m):
    """Indices of the rows of m that are independent of the rows before them.

    Scans the rows in order and keeps a fraction-free row echelon of the kept
    ones, each row divided by the gcd of its entries; no transformation matrix
    is built.  A candidate is reduced once against that echelon and kept when
    a nonzero entry survives.  The scan stops once the kept rows span the
    whole row space, as no later row can be independent of them.
    """
    echelon = []  # (pivot column, row); each row is zero at earlier pivots
    kept = []
    for i, row in enumerate(mat(m)):
        if len(kept) == len(row):
            break
        v = row
        for p, e in echelon:
            if v[p]:
                a, b = e[p], v[p]
                v = tuple(a * x - b * y for x, y in zip(v, e))
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            continue
        g = gcd_vec(v)
        echelon.append((p, tuple(x // g for x in v)))
        kept.append(i)
    return kept


def rank(m):
    """Rank, from the fraction-free row echelon of ``independent_rows``."""
    return len(independent_rows(m))


def _bareiss(a):
    """det B for the leading n x n block B of the n row lists ``a``, by
    Bareiss's fraction-free Gauss-Jordan elimination of the rows in place.

    Each update divides by the previous pivot exactly: after step k each
    entry is a k x k minor.  A row swap negates the incoming row, keeping
    det B, so the last pivot d is det B, and the rows end at
    [d * I | d * B^-1 C] for the columns C after B; 0 when B is singular.
    """
    n = len(a)
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            s = next((i for i in range(k + 1, n) if a[i][k]), None)
            if s is None:
                return 0
            a[k], a[s] = [-x for x in a[s]], a[k]
        pk = a[k]
        for i in range(n):
            if i != k:
                ri = a[i]
                c = ri[k]
                a[i] = [(pk[k] * x - c * y) // prev for x, y in zip(ri, pk)]
        prev = pk[k]
    return prev


def _square_rows(m):
    """The rows of m as lists; ValueError unless m is square."""
    if any(len(r) != len(m) for r in m):
        raise ValueError("not a square matrix")
    return [list(r) for r in m]


def scaled_inverse(m):
    """(det m, adj m) of a square matrix, from ``_bareiss`` on [m | I], which
    ends at [det m * I | adj m]; adj m is None when m is singular."""
    n = len(m)
    a = [r + [int(i == j) for j in range(n)] for i, r in enumerate(_square_rows(m))]
    d = _bareiss(a)
    return d, tuple(tuple(row[n:]) for row in a) if d else None


def det(m):
    """Determinant, from ``_bareiss`` on m alone."""
    return _bareiss(_square_rows(m))


def adjugate(m):
    """Transposed cofactor matrix: adj[i][j] = (-1)^(i+j) det(m minus row j, col i).

    m * adjugate(m) = adjugate(m) * m = det(m) * Id.  It costs n^2
    determinants; ``scaled_inverse`` gives the same matrix from one
    elimination, and this definition is its reference in the tests.
    """
    n = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * det(
                tuple(
                    tuple(row[c] for c in range(n) if c != i)
                    for r, row in enumerate(m)
                    if r != j
                )
            )
            for j in range(n)
        )
        for i in range(n)
    )


def maximal_minor_gcd(m):
    """gcd of the k x k minors of a k x n matrix, stopping once it reaches 1.

    It is 1 exactly when the rows extend to a basis of Z^n and 0 exactly when
    they are dependent; a matrix without rows gives 1.
    """
    m = mat(m)
    ncols = len(m[0]) if m else 0
    g = 0
    for cols in combinations(range(ncols), len(m)):
        g = gcd(g, det(tuple(tuple(r[c] for c in cols) for r in m)))
        if g == 1:
            break
    return g


def kernel_basis(points):
    """Echelon basis of the saturated left kernel {c : c * points = 0}.

    Rows come back in Hermite normal form, so the first nonzero entry of each
    row is positive; the resulting basis generates every integer relation
    among the rows of `points`.
    """
    points = mat(points)
    if not points:
        raise ValueError("empty matrix")
    h, u = hermite_form(points)
    kern = [u[i] for i in range(len(h)) if is_zero(h[i])]
    if not kern:
        return ()
    hk, _ = hermite_form(kern)
    return tuple(r for r in hk if not is_zero(r))


def right_kernel(m):
    """Basis of {x : m * x = 0}, as rows."""
    m = mat(m)
    if not m:
        raise ValueError("empty matrix")
    return kernel_basis(transpose(m))


def saturation(m):
    """Basis of the saturation of the row span of m (rows, in HNF)."""
    m = mat(m)
    if not m:
        raise ValueError("empty matrix")
    ncols = len(m[0])
    k = right_kernel(m)
    if not k:
        return identity(ncols)
    return right_kernel(k)


def solve_exact(a, b):
    """One integer solution x of x * a = b, or None.

    `a` is a matrix (rows spanning the relevant lattice), `b` a row vector in
    the row span.  Returns None when b is not an integer combination of the
    rows of a.
    """
    a = mat(a)
    b = vec(b)
    h, u = hermite_form(a)
    nrows = len(h)
    ncols = len(h[0])
    pivots = []
    for i in range(nrows):
        for j in range(ncols):
            if h[i][j] != 0:
                pivots.append((i, j))
                break
    y = [0] * nrows
    r = list(b)
    for i, j in pivots:
        if r[j] % h[i][j] != 0:
            return None
        c = r[j] // h[i][j]
        y[i] = c
        if c:
            r = [r[t] - c * h[i][t] for t in range(ncols)]
    if any(r):
        return None
    return vecmat(tuple(y), u)


@dataclass(frozen=True)
class Sublattice:
    """A saturated sublattice of Z^ambient_rank given by independent basis rows."""

    basis: Mat
    ambient_rank: int

    @property
    def rank(self):
        return len(self.basis)

    def coords(self, v):
        """Coordinates of v in the basis, or None if v is outside the sublattice."""
        return solve_exact(self.basis, v)

    def from_coords(self, c):
        return vecmat(vec(c), self.basis)
