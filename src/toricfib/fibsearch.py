"""Search for torically induced fibrations: reflexive slices of a polar polytope.

A rank-k sublattice L is a candidate when the slice of the polar polytope by
L and the projection of the base polytope along the annihilator of L are both
reflexive (the two conditions are polar to each other).  Two structural facts
keep the search exact and fast:

* a vertex x of the slice is an extreme point of the intersection, so its
  carrier face G of the polar satisfies lin(G - x) meet L = 0; hence x lies
  on a face of dimension at most n - k, and L is spanned by such points;
* a valid L contains at least k + 1 generating points of rank k, so some
  rank-(k-1) subspan extends to L through two distinct generating points.
  Only multiply-hit extensions survive the last enumeration stage.

For k <= 2 each surviving span is then decided without saturation or double
description.  With B' the k generating points spanning L over Q, the slice is
{y B' : <y, B' u> >= -1 for every facet normal u of the polar}, the polar of
the integral projection Q' = conv(B' u).  Its vertices are dual to the edges of
Q', and they lie in L meet Z^n exactly when their coordinates in a basis of
L meet Z^n are integral: the test of the double-description path.  An integral
slice is reflexive, its polar being the integral projection of the base
polytope (the test of Avram, Kreuzer, Mandelberg and Skarke, "Searching for K3
fibrations", hep-th/9610154).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np

from . import exactlinalg as la
from .cy import vertices_from_inequalities
from .errors import DegenerateInputError, NotReflexiveError, ToricError
from .polytope import LatticePolytope


@dataclass(frozen=True)
class FibrationCandidate:
    """A reflexive slice/projection pair over a saturated sublattice."""

    sublattice: la.Sublattice
    slice_polytope: LatticePolytope
    projection: LatticePolytope
    balanced: bool


def _generating_points(polar, max_face_dim):
    _, boundary = polar.lattice_points()
    masks = polar._points_data()[2]
    tight2dim = {}
    for fs in polar._face_data().values():
        for f in fs:
            tight2dim[f.tight_facets] = f.dim
    return [p for p in boundary if tight2dim[masks[p]] <= max_face_dim]


def _normalize_rows(m):
    g = np.gcd.reduce(np.abs(m), axis=1)
    g[g == 0] = 1
    m = m // g[:, None]
    first = np.argmax(m != 0, axis=1)
    signs = np.sign(m[np.arange(len(m)), first])
    signs[signs == 0] = 1
    return m * signs[:, None]


def _stage_matrix(n, r):
    """Linear map from r-minor vectors to the coordinate-expansion tensor.

    Returns (ncombos_r, ncombos_r1, T) with T of shape (C(n,r), n*C(n,r+1)):
    reshaping (minors @ T) to (n, C(n,r+1)) gives, per appended-row
    coordinate m and column set S, the signed cofactor so that
    minor_{S}([B; q]) = sum_m q[m] * C[m, S].
    """
    combos_r = list(combinations(range(n), r))
    combos_r1 = list(combinations(range(n), r + 1))
    idx = {c: i for i, c in enumerate(combos_r)}
    T = np.zeros((len(combos_r), n * len(combos_r1)), dtype=np.int64)
    for out_i, S in enumerate(combos_r1):
        for t, m in enumerate(S):
            rest = tuple(x for x in S if x != m)
            sign = (-1) ** (r + t)  # expansion along the appended last row
            T[idx[rest], m * len(combos_r1) + out_i] += sign
    return len(combos_r), len(combos_r1), T


def search_fibrations(delta, fibre_dim):
    """All saturated rank-``fibre_dim`` sublattices giving reflexive fibres.

    The sublattices are spanned by boundary lattice points of the polar of
    ``delta``; each candidate carries the slice (in sublattice coordinates)
    and the projection of ``delta`` (in dual quotient coordinates).  A
    candidate is flagged ``balanced`` when its polytope classes also occur
    with the roles of slice and projection interchanged on the polar side,
    i.e. some slice of ``delta`` itself is lattice-isomorphic to the
    candidate's projection; the fibration then has a matching partner on the
    mirror ambient.
    """
    cands = _raw_candidates(delta, fibre_dim)
    dual = _raw_candidates(delta.polar_cached(), fibre_dim)
    out = []
    for c in cands:
        flag = any(
            lattice_equivalent(c.projection, d.slice_polytope) for d in dual
        )
        out.append(replace(c, balanced=flag))
    return tuple(out)


def _raw_candidates(delta, fibre_dim):
    if not delta.is_reflexive():
        raise NotReflexiveError("fibration search needs a reflexive polytope")
    n = delta.rank
    k = fibre_dim
    if not 1 <= k < n:
        raise DegenerateInputError("fibre dimension must be between 1 and rank-1")
    polar = delta.polar_cached()
    gens = _generating_points(polar, n - k)
    if len(gens) < k + 1:
        return ()
    P = np.array(gens, dtype=np.int64)
    reps = list(_span_survivors(P, k).values())
    if k <= 2:
        reps = [r for r, ok in zip(reps, _integral_slices(P, reps, polar)) if ok]
    out = []
    seen_bases = set()
    for rep in reps:
        pts = la.mat([gens[i] for i in rep])
        basis = la.saturation(pts)
        if len(basis) != k or basis in seen_bases:
            continue
        seen_bases.add(basis)
        cand = _evaluate_sublattice(delta, polar, basis)
        if cand is not None:
            out.append(cand)
    out.sort(key=lambda c: c.sublattice.basis)
    return tuple(out)


def _span_survivors(P, k):
    """Rank-k spans of the rows of ``P`` that some rank-(k-1) span reaches
    through two distinct rows.

    Returns a dict from the normalized Pluecker row (a tuple) of each span to
    its representative: the row indices of its first hit, smallest parent
    first, then smallest appended row.  Raises DegenerateInputError when an
    int64 minor could overflow.
    """
    g, n = P.shape
    # Hadamard: every minor, and every partial sum of one, is below n*|row|^k
    norm2 = max(sum(x * x for x in row) for row in P.tolist())
    if n * n * norm2**k >= 2**126:
        raise DegenerateInputError("generating points too large for int64 minors")
    # staged span enumeration; stage r holds representative index tuples and
    # the Pluecker (r-minor) vector of each distinct rank-r span
    reps_idx = [()]
    reps_minors = np.ones((1, 1), dtype=np.int64)
    survivors = {}
    batch_size = 64
    for r in range(k):
        _, nc1, T = _stage_matrix(n, r)
        final = r + 1 == k
        nxt_idx, nxt_rows, nxt_seen = [], [], set()
        for lo in range(0, len(reps_idx), batch_size):
            hi = min(lo + batch_size, len(reps_idx))
            B = hi - lo
            C = (reps_minors[lo:hi] @ T).reshape(B, n, nc1)
            ext = np.einsum("gm,bmo->bgo", P, C)
            flat = ext.reshape(B * g, nc1)
            nonzero = np.any(flat != 0, axis=1)
            rows = _normalize_rows(flat[nonzero])
            flat_pos = np.nonzero(nonzero)[0]
            if not final:
                for pos, row in zip(flat_pos, rows):
                    kk = row.tobytes()
                    if kk not in nxt_seen:
                        nxt_seen.add(kk)
                        b, q = divmod(int(pos), g)
                        nxt_idx.append(reps_idx[lo + b] + (q,))
                        nxt_rows.append(row)
            else:
                # keep spans reached by two distinct extensions of one parent
                parent = flat_pos // g
                tagged = np.concatenate([parent[:, None], rows], axis=1)
                uniq, first, counts = np.unique(
                    tagged, axis=0, return_index=True, return_counts=True
                )
                hit = counts >= 2
                for u, fidx in zip(uniq[hit], first[hit]):
                    kk = tuple(u[1:].tolist())
                    if kk in survivors:
                        continue
                    b, q = divmod(int(flat_pos[fidx]), g)
                    survivors[kk] = reps_idx[lo + b] + (q,)
        if not final:
            reps_idx = nxt_idx
            reps_minors = (
                np.array(nxt_rows, dtype=np.int64)
                if nxt_rows
                else np.zeros((0, nc1), dtype=np.int64)
            )
    return survivors


def _integral_slices(P, reps, polar):
    """Per representative (k <= 2 row indices of ``P`` spanning L over Q),
    whether every vertex of the slice of ``polar`` by L is a lattice point.

    With B' the representative rows and Q' = B' u over the facet normals u of
    ``polar``, the slice is the polar of conv(Q'), written in B' coordinates.
    For k = 1, Q' spans [a, b] and the slice vertices are g/|a| and -g/b.  For
    k = 2, the vertex dual to a hull edge (p, q) with D = det(p, q) is
    -((q2 - p2) b'1 + (p1 - q1) b'2) / D.
    """
    assert all(c == 1 for _, c in polar.facets), "polar of a reflexive polytope"
    if not reps:
        return []
    U = np.array([u for u, _ in polar.facets], dtype=np.int64)
    bound = max(sum(map(abs, u)) for u in U.tolist()) * int(np.abs(P).max())
    if bound >= 2**63:
        raise DegenerateInputError("generating points too large for int64 images")
    B = P[np.array(reps)]
    Q = B @ U.T
    if B.shape[1] == 1:
        g = B[:, 0]
        a = -Q[:, 0].min(axis=1)
        b = Q[:, 0].max(axis=1)
        fractional = np.any(g % a[:, None], axis=1) | np.any(g % b[:, None], axis=1)
        return (~fractional).tolist()
    out = []
    for (b1, b2), images in zip(B.tolist(), Q.tolist()):
        hull = _convex_polygon(set(zip(*images)))
        edges = zip(hull, hull[1:] + hull[:1])
        out.append(
            not any(
                ((q2 - p2) * x + (p1 - q1) * y) % (p1 * q2 - p2 * q1)
                for (p1, p2), (q1, q2) in edges
                for x, y in zip(b1, b2)
            )
        )
    return out


def _convex_polygon(points):
    """Vertices of the convex hull of distinct plane points, anticlockwise
    (Andrew's monotone chain; collinear boundary points dropped)."""
    pts = sorted(points)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _evaluate_sublattice(delta, polar, basis):
    k = len(basis)
    sub = la.Sublattice(basis=basis, ambient_rank=delta.rank)
    # slice of the polar by the sublattice, in basis coordinates
    ineqs = [
        (tuple(la.dot(b, u) for b in basis), c) for (u, c) in polar.facets
    ]
    try:
        verts = vertices_from_inequalities(ineqs, k)
    except DegenerateInputError:
        return None
    if not verts:
        return None
    iverts = []
    for v in verts:
        w = tuple(int(x) for x in v)
        if any(a != b for a, b in zip(v, w)):
            return None
        iverts.append(w)
    try:
        slice_poly = LatticePolytope.hull(iverts)
    except ToricError:
        return None
    if not slice_poly.is_reflexive():
        return None
    # the projection of delta along the annihilator of the sublattice is
    # dual to the slice of its polar, so it is the slice's (reflexive) polar
    proj = slice_poly.polar()
    return FibrationCandidate(
        sublattice=sub,
        slice_polytope=slice_poly,
        projection=proj,
        balanced=lattice_equivalent(slice_poly, proj),
    )


def lattice_equivalent(p, q):
    """Whether two full-dimensional lattice polytopes with interior origin
    differ by a unimodular change of lattice coordinates."""
    if p.rank != q.rank or len(p.vertices) != len(q.vertices):
        return False
    if len(p.facets) != len(q.facets):
        return False
    k = p.rank
    base = None
    for sub in combinations(range(len(p.vertices)), k):
        m = la.mat([p.vertices[i] for i in sub])
        if abs(la.det(m)) > 0:
            base = m
            break
    if base is None:
        return False
    d = la.det(base)
    adj = la.adjugate(base)
    qverts = set(q.vertices)
    for target in permutations(q.vertices, k):
        w = la.mat(target)
        # solve base * U = w over the rationals; integrality required
        u = _solve_matrix(adj, w, d)
        if u is None:
            continue
        if abs(la.det(u)) != 1:
            continue
        if {la.vecmat(v, u) for v in p.vertices} == qverts:
            return True
    return False


def _solve_matrix(adj_a, b, det_a):
    """Integer matrix U with a*U = b, given adj(a) and det(a); None if fractional."""
    num = la.matmul(adj_a, b)
    u = []
    for row in num:
        r = []
        for x in row:
            if x % det_a:
                return None
            r.append(x // det_a)
        u.append(tuple(r))
    return tuple(u)
