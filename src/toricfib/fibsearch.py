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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    from dataclasses import replace

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
    g = len(P)

    # staged span enumeration; stage r holds representative index tuples and
    # the Pluecker (r-minor) vector of each distinct rank-r span
    reps_idx = [()]
    reps_minors = np.ones((1, 1), dtype=np.int64)
    survivors = {}
    batch_size = 512
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
                for u, fidx, cnt in zip(uniq, first, counts):
                    if cnt < 2:
                        continue
                    kk = u[1:].tobytes()
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
    out = []
    seen_bases = set()
    for rep in survivors.values():
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
    from itertools import permutations

    qverts = set(q.vertices)
    for target in permutations(q.vertices, k):
        w = la.mat(target)
        # solve base * U = w over the rationals; integrality required
        u = _solve_matrix(base, w, d)
        if u is None:
            continue
        if abs(la.det(u)) != 1:
            continue
        if {la.vecmat(v, u) for v in p.vertices} == qverts:
            return True
    return False


def _solve_matrix(a, b, det_a):
    """Integer matrix U with a*U = b, via the adjugate; None if fractional."""
    num = la.matmul(la.adjugate(a), b)
    u = []
    for row in num:
        r = []
        for x in row:
            if x % det_a:
                return None
            r.append(x // det_a)
        u.append(tuple(r))
    return tuple(u)
