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

The enumeration keys each span by its normalized Pluecker row in int64.  The
last stage runs over batches of parents and groups each batch's (parent, row)
pairs with np.unique on a view of each row as one opaque byte string: two
int64 rows are equal exactly when their bytes are, so the grouping is exact
and only the multiply-hit rows reach Python.  A set of the row bytes already
seen keeps the first hit of each span, across batches too.

The search is one lazy pipeline: each batch of new survivors is decided,
saturated and evaluated before the next batch is enumerated, and candidates
stream out as they are found.  A search consumes the stream of its own
polytope in full; the ``balanced`` flags pull the polar side's stream only
until every candidate has found its partner, and not at all when there are
no candidates.

For k <= 2 each surviving span is then decided without saturation or double
description.  With B' the k generating points spanning L over Q, the slice is
{y B' : <y, B' u> >= -1 for every facet normal u of the polar}, the polar of
the integral projection Q' = conv(B' u).  Its vertices are dual to the edges of
Q', and they lie in L meet Z^n exactly when their coordinates in a basis of
L meet Z^n are integral: the test of the double-description path.  An integral
slice is reflexive, its polar being the integral projection of the base
polytope (the test of Avram, Kreuzer, Mandelberg and Skarke, "Searching for K3
fibrations", hep-th/9610154).  For k = 2 the edges of Q' come from an exact
int64 sweep over the images of all survivors at once, O(F^2) for F facets of
the polar; with M bounding every image coordinate, its products stay below
8 M^2, which must be below 2^63.
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
    and the projection of ``delta`` (in dual quotient coordinates), in order
    of sublattice basis.  A candidate is flagged ``balanced`` when its
    polytope classes also occur with the roles of slice and projection
    interchanged on the polar side, i.e. some slice of ``delta`` itself is
    lattice-isomorphic to the candidate's projection; the fibration then has
    a matching partner on the mirror ambient.

    The polar side is searched lazily: its candidates are pulled from the
    same stream as ``delta``'s, one at a time, only until every candidate of
    ``delta`` has found its partner or the stream runs out.  With no
    candidates, the polar side is not searched at all.
    """
    cands = _raw_candidates(delta, fibre_dim)
    unmatched = set(range(len(cands)))
    dual = _candidates(delta.polar_cached(), fibre_dim)
    while unmatched and (d := next(dual, None)) is not None:
        unmatched = {
            i
            for i in unmatched
            if not lattice_equivalent(cands[i].projection, d.slice_polytope)
        }
    return tuple(
        replace(c, balanced=i not in unmatched) for i, c in enumerate(cands)
    )


def _raw_candidates(delta, fibre_dim):
    """Every candidate of ``delta`` in order of sublattice basis, each with
    ``balanced`` False."""
    return tuple(
        sorted(_candidates(delta, fibre_dim), key=lambda c: c.sublattice.basis)
    )


def _candidates(delta, fibre_dim):
    """Stream of the candidates of ``delta``, in the order their sublattices
    first survive the span enumeration, each with ``balanced`` False.

    Each batch of surviving spans is decided (by its integral projection for
    k <= 2), saturated and evaluated before the next batch is enumerated, so
    a consumer that stops early skips the rest of the search.
    """
    if not delta.is_reflexive():
        raise NotReflexiveError("fibration search needs a reflexive polytope")
    n = delta.rank
    k = fibre_dim
    if not 1 <= k < n:
        raise DegenerateInputError("fibre dimension must be between 1 and rank-1")
    polar = delta.polar_cached()
    gens = _generating_points(polar, n - k)
    if len(gens) < k + 1:
        return
    P = np.array(gens, dtype=np.int64)
    seen_bases = set()
    for batch in _span_survivors(P, k):
        reps = [rep for _, rep in batch]
        if k <= 2:
            reps = [r for r, ok in zip(reps, _integral_slices(P, reps, polar)) if ok]
        for rep in reps:
            basis = la.saturation(la.mat([gens[i] for i in rep]))
            if len(basis) != k or basis in seen_bases:
                continue
            seen_bases.add(basis)
            cand = _evaluate_sublattice(delta, polar, basis)
            if cand is not None:
                yield cand


def _span_survivors(P, k):
    """Rank-k spans of the rows of ``P`` that some rank-(k-1) span reaches
    through two distinct rows, as a stream.

    Each item of the stream is a non-empty list of the spans first reached
    from one batch of parents: pairs of the normalized Pluecker row (a tuple)
    of a span and its representative, the row indices of its first hit,
    smallest parent first, then smallest appended row.  The items follow in
    that order too, so each span occurs once, with its first hit.  Raises
    DegenerateInputError when an int64 minor could overflow, at the call,
    before any item is pulled.
    """
    g, n = P.shape
    # Hadamard: every minor, and every partial sum of one, is below n*|row|^k
    norm2 = max(sum(x * x for x in row) for row in P.tolist())
    if n * n * norm2**k >= 2**126:
        raise DegenerateInputError("generating points too large for int64 minors")
    return _span_batches(P, k)


def _span_batches(P, k):
    """The stream of _span_survivors, after its bound check."""
    g, n = P.shape
    # staged span enumeration; stage r holds representative index tuples and
    # the Pluecker (r-minor) vector of each distinct rank-r span
    reps_idx = [()]
    reps_minors = np.ones((1, 1), dtype=np.int64)
    batch_size = 32
    for r in range(k):
        _, nc1, T = _stage_matrix(n, r)
        final = r + 1 == k
        seen, nxt = set(), []
        for lo in range(0, len(reps_idx), batch_size):
            hi = min(lo + batch_size, len(reps_idx))
            B = hi - lo
            C = (reps_minors[lo:hi] @ T).reshape(B, n, nc1)
            ext = np.einsum("gm,bmo->bgo", P, C)
            flat = ext.reshape(B * g, nc1)
            nonzero = np.any(flat != 0, axis=1)
            rows = _normalize_rows(flat[nonzero])
            flat_pos = np.nonzero(nonzero)[0]
            keep = np.arange(len(rows))
            if final:
                # keep spans reached by two distinct extensions of one parent;
                # the first of each group is its smallest appended row, and
                # sorting puts the hits in (parent, appended row) order
                # rather than byte order
                parent = flat_pos // g
                tagged = np.concatenate([parent[:, None], rows], axis=1)
                _, first, counts = np.unique(
                    _void_rows(tagged), return_index=True, return_counts=True
                )
                keep = np.sort(first[counts >= 2])
            # the first hit of a span not seen in an earlier batch represents it
            new = []
            for row, pos in zip(rows[keep], flat_pos[keep].tolist()):
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    b, q = divmod(pos, g)
                    new.append((row, reps_idx[lo + b] + (q,)))
            if not final:
                nxt += new
            elif new:
                yield [(tuple(row.tolist()), rep) for row, rep in new]
        reps_idx = [rep for _, rep in nxt]
        reps_minors = np.array([row for row, _ in nxt], dtype=np.int64).reshape(-1, nc1)


def _void_rows(m):
    """The rows of a 2-d int64 array as one opaque item each: equal items are
    equal rows (byte for byte), so np.unique on the view groups rows exactly."""
    m = np.ascontiguousarray(m)
    return m.view(np.dtype((np.void, m.dtype.itemsize * m.shape[1]))).ravel()


def _integral_slices(P, reps, polar):
    """Per representative (k <= 2 row indices of ``P`` spanning L over Q),
    whether every vertex of the slice of ``polar`` by L is a lattice point.
    The formulas below need every facet of ``polar`` at distance 1, as in the
    polar of a reflexive polytope; raises NotReflexiveError otherwise.

    With B' the representative rows and Q' = B' u over the facet normals u of
    ``polar``, the slice is the polar of conv(Q'), written in B' coordinates.
    For k = 1, Q' spans [a, b] and the slice vertices are g/|a| and -g/b.  For
    k = 2, the vertex dual to a hull edge through q with direction b and
    D = det(q, q + b) > 0 is -(b2 b'1 - b1 b'2) / D.  The edge lines are found
    by an exact sweep over the images, vectorized over the representatives:
    for each image q_i, b_i is the most clockwise nonzero difference
    q_r - q_i (the earlier one on a tie), and (q_i, q_i + b_i) is an
    anticlockwise edge line of conv(Q') exactly when every image lies on its
    left or on it.  Images on an edge give that edge's line again, which
    repeats the same test.

    With M = max |u|_1 * max |P| bounding every image coordinate, all
    differences, cross products, D and numerators stay below 8 M^2; raises
    DegenerateInputError unless M < 2^63 for k = 1 and 8 M^2 < 2^63 for k = 2.
    """
    if any(c != 1 for _, c in polar.facets):
        raise NotReflexiveError("slices need the polar of a reflexive polytope")
    if not reps:
        return []
    U = np.array([u for u, _ in polar.facets], dtype=np.int64)
    M = max(sum(map(abs, u)) for u in U.tolist()) * int(np.abs(P).max())
    k = len(reps[0])
    if (M if k == 1 else 8 * M * M) >= 2**63:
        raise DegenerateInputError("generating points too large for int64 images")
    B = P[np.array(reps)]
    if k == 1:
        Q = B @ U.T
        g = B[:, 0]
        a = -Q[:, 0].min(axis=1)
        b = Q[:, 0].max(axis=1)
        fractional = np.any(g % a[:, None], axis=1) | np.any(g % b[:, None], axis=1)
        return (~fractional).tolist()
    out = []
    batch_size = 4096
    for lo in range(0, len(B), batch_size):
        Bb = B[lo : lo + batch_size]
        Q = Bb @ U.T
        x, y = Q[:, 0], Q[:, 1]
        edge, bx, by = _edge_lines(x, y)
        D = np.where(edge, x * by - y * bx, 1)
        num = by[:, :, None] * Bb[:, None, 0, :] - bx[:, :, None] * Bb[:, None, 1, :]
        out.extend((~np.any(num % D[:, :, None], axis=(1, 2))).tolist())
    return out


def _edge_lines(x, y):
    """Edge lines of the convex hulls of plane point sets, by an exact sweep.

    Row s of ``x`` and ``y`` holds the coordinates of one point set.  Returns
    (edge, bx, by): bx, by hold b_i, the most clockwise nonzero difference
    q_r - q_i (the earlier one on a tie), and edge[s, i] says whether the line
    through q_i and q_i + b_i is an anticlockwise edge line of the hull, that
    is, whether no point lies right of it.  Each hull edge is found from the
    vertex it leaves anticlockwise; points on an edge find its line again.
    """
    bx, by = np.zeros_like(x), np.zeros_like(y)
    for r in range(x.shape[1]):
        dx, dy = x[:, r, None] - x, y[:, r, None] - y
        # a zero difference never replaces a nonzero b: its cross is 0
        turn = ((bx == 0) & (by == 0)) | (bx * dy - by * dx < 0)
        bx, by = np.where(turn, dx, bx), np.where(turn, dy, by)
    edge = np.ones(x.shape, dtype=bool)
    for r in range(x.shape[1]):
        edge &= bx * (y[:, r, None] - y) - by * (x[:, r, None] - x) >= 0
    return edge, bx, by


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
        balanced=False,
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
