"""Search for torically induced fibrations: reflexive slices of a polar polytope.

A rank-k sublattice L is a candidate when the slice of the polar polytope by
L and the projection of the base polytope along the annihilator of L are both
reflexive (the two conditions are polar to each other).  Two structural facts
keep the search exact and fast:

* a vertex x of the slice is an extreme point of the intersection, so its
  carrier face G of the polar satisfies lin(G - x) meet L = 0; hence x lies
  on a face of dimension at most n - k, and L is spanned by such points;
* the origin is interior to a valid slice, so every hyperplane of L through
  the origin has slice vertices, which are generating points, strictly on
  both of its sides.  The enumeration reaches each span first through its
  least basis of generating points (lemma A of ``_span_survivors``), and the
  last stage keeps a span only when its parent reaches it from both sides
  (lemma B).

The enumeration keys each span by its normalized Pluecker row in int64.  The
last stage runs over batches of parents and groups each batch's (parent, row)
pairs with np.unique on a view of each row as one opaque byte string: two
int64 rows are equal exactly when their bytes are, so the grouping is exact
and only the rows reached from both sides reach Python.  A set of the row
bytes already seen keeps the first kept hit of each span, across batches too.

The search is one lazy pipeline: each batch of new survivors is decided,
saturated and evaluated before the next batch is enumerated, and candidates
stream out as they are found.  A search consumes the stream of its own
polytope in full; the ``balanced`` flags pull the polar side's stream only
until every candidate has found its partner, and not at all when there are
no candidates.

Each surviving span is then decided without saturation or double
description, by the test of Avram, Kreuzer, Mandelberg and Skarke ("Searching
for K3 fibrations", hep-th/9610154) in the form of the fibration searches of
Kreuzer and Skarke (hep-th/9701175).  With B' the k generating points spanning
L over Q, the slice is {y B' : <y, B' u> >= -1 for every facet normal u of
the polar}, the polar of the integral projection Q' = conv(B' u).  Each slice
vertex is tight at k facets of the polar that meet in one of its vertices, so
it is one of the Cramer solutions of y Q'_J = -1 over the k-subsets J of the
facets tight at a common polar vertex: the feasible ones.  The span survives
when all of them are lattice points; an integral slice is reflexive, its polar
being the integral projection of the base polytope.  The test runs in int64
over all spans of a batch at once, and every product stays below
k k! M^k < 2^63, with M bounding every image coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations, permutations

import numpy as np

from . import exactlinalg as la
from .errors import DegenerateInputError, NotReflexiveError
from .polytope import LatticePolytope


@dataclass(frozen=True)
class FibrationCandidate:
    """A reflexive slice/projection pair over a saturated sublattice."""

    sublattice: la.Sublattice
    slice_polytope: LatticePolytope
    projection: LatticePolytope
    balanced: bool


def _generating_points(polar, max_face_dim):
    """Boundary points of ``polar`` on faces of dimension <= max_face_dim.

    A point's tight facet set T is that of its carrier face, whose dimension
    is rank - rank(normals of T); it is computed once per distinct T.
    """
    _, boundary, masks = polar._points_data
    normals = [n for n, _ in polar.facets]
    dims = {
        tight: polar.rank - la.rank([normals[j] for j in tight])
        for tight in {masks[p] for p in boundary}
    }
    return [p for p in boundary if dims[masks[p]] <= max_face_dim]


def _normalize_rows(m):
    """The primitive rows of ``m`` with positive first nonzero entry, and the
    sign each row was multiplied by (1 for a zero row)."""
    g = np.gcd.reduce(np.abs(m), axis=1)
    g[g == 0] = 1
    m = m // g[:, None]
    first = np.argmax(m != 0, axis=1)
    signs = np.sign(m[np.arange(len(m)), first])
    signs[signs == 0] = 1
    return m * signs[:, None], signs


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
    dual = _candidates(delta.polar(), fibre_dim)
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

    Each batch of surviving spans is decided by the vertices of its slices,
    and the spans with integral slices are saturated and built into
    candidates before the next batch is enumerated, so a consumer that stops
    early skips the rest of the search.
    """
    if not delta.is_reflexive():
        raise NotReflexiveError("fibration search needs a reflexive polytope")
    n = delta.rank
    k = fibre_dim
    if not 1 <= k < n:
        raise DegenerateInputError("fibre dimension must be between 1 and rank-1")
    polar = delta.polar()
    gens = _generating_points(polar, n - k)
    if len(gens) < k + 1:
        return
    P = np.array(gens, dtype=np.int64)
    # each span occurs once in the stream, so each saturated basis does too
    for batch in _span_survivors(P, k):
        reps = [rep for _, rep in batch]
        for rep, verts in zip(reps, _integral_slices(P, reps, polar)):
            if verts is not None:
                basis = la.saturation(la.mat([gens[i] for i in rep]))
                yield _candidate(basis, verts)


def _span_survivors(P, k):
    """Rank-k spans of the rows of ``P`` that the least basis of some
    rank-(k-1) span reaches from both of its sides, as a stream.

    The least basis of a span is its lexicographically least increasing
    tuple of independent rows of ``P``.  Two lemmas make the stream complete
    for the search, that is, it holds every span whose slice is reflexive:

    * A (least basis): the least basis of a rank-r span is the least basis
      of the span of its first r - 1 rows plus one later row, so extending
      each such parent only by the rows after its last reaches every span,
      parents in order, first through its least basis;
    * B (both sides): a reflexive slice by a rank-k span L has vertices, all
      of them rows of ``P``, strictly on both sides of the span of L's first
      k - 1 least-basis rows, and none of them precedes the k-th, so that
      parent reaches L through rows on both of its sides.

    Each item of the stream is a non-empty list of the spans first kept from
    one batch of parents: pairs of the normalized Pluecker row (a tuple) of a
    span and its representative, the increasing row indices of its first
    hit from both sides, in lexicographic order.  The items follow in that
    order too, so each span occurs once, and a span with a reflexive slice
    with its least basis.  Raises DegenerateInputError when an int64 minor
    could overflow, at the call, before any item is pulled.
    """
    g, n = P.shape
    # Hadamard: every minor, and every partial sum of one, is below n*|row|^k
    norm2 = max(sum(x * x for x in row) for row in P.tolist())
    if n * n * norm2**k >= 2**126:
        raise DegenerateInputError("generating points too large for int64 minors")
    return _span_batches(P, k)


def _span_batches(P, k):
    """The stream of _span_survivors, after its bound check.

    Stage r extends the representatives of the rank-(r-1) spans, which are
    their least bases in lexicographic order, by the rows after their last
    one (lemma A); its first hits are then the least bases of the rank-r
    spans, in the same order.  The last stage keeps, per parent, the spans it
    reaches through rows of both signs, the sign by which _normalize_rows
    turns the appended row's minors into the span's key (lemma B): the
    minors of (parent rows, q) are the span's Pluecker row times the
    coordinate of q across the parent.
    """
    g, n = P.shape
    # staged span enumeration; stage r holds representative index tuples and
    # the Pluecker (r-minor) vector of each distinct rank-r span, in order of
    # representative
    reps_idx = [()]
    reps_minors = np.ones((1, 1), dtype=np.int64)
    batch_size = 32
    for r in range(k):
        _, nc1, T = _stage_matrix(n, r)
        final = r + 1 == k
        seen, nxt = set(), []
        for lo in range(0, len(reps_idx), batch_size):
            reps = reps_idx[lo : lo + batch_size]
            B = len(reps)
            # lemma A: a parent is extended only by the rows after its last
            last = np.array([rep[-1] if rep else -1 for rep in reps])
            start = int(last.min()) + 1
            w = g - start
            C = (reps_minors[lo : lo + B] @ T).reshape(B, n, nc1)
            flat = (P[start:] @ C).reshape(B * w, nc1)
            later = np.arange(start, g)[None, :] > last[:, None]
            live = later.ravel() & np.any(flat != 0, axis=1)
            rows, signs = _normalize_rows(flat[live])
            flat_pos = np.nonzero(live)[0]
            keep = np.arange(len(rows))
            if final:
                # lemma B: keep the spans a parent reaches from both of its
                # sides; the first of each group is its smallest appended
                # row, and sorting puts the hits in (parent, appended row)
                # order rather than byte order
                parent = flat_pos // w
                tagged = np.concatenate([parent[:, None], rows], axis=1)
                _, first, inverse, counts = np.unique(
                    _void_rows(tagged),
                    return_index=True,
                    return_inverse=True,
                    return_counts=True,
                )
                plus = np.bincount(inverse[signs > 0], minlength=len(counts))
                keep = np.sort(first[(plus > 0) & (plus < counts)])
            # several parents can reach a span: its first kept hit represents it
            new = []
            for row, pos in zip(rows[keep], flat_pos[keep].tolist()):
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    b, q = divmod(pos, w)
                    new.append((row, reps[b] + (start + q,)))
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
    """Per representative (k row indices of ``P`` spanning L over Q), the
    vertices of the slice of ``polar`` by L as a sorted tuple of lattice
    points, or None when some vertex is not a lattice point.  Every facet of
    ``polar`` must be at distance 1, as in the polar of a reflexive polytope;
    raises NotReflexiveError otherwise.

    With B' the representative rows and Q' = B' u over the facet normals u of
    ``polar``, the slice is {y B' : y Q' >= -1}.  Each of its vertices is
    tight at k facets with independent images in Q', and those facets all
    contain one vertex of ``polar``.  So for every k-subset J of the facets
    tight at a common vertex of ``polar``, y_J solves y Q'_J = -1 by Cramer's
    rule, y_J = -(1 adj Q'_J) / det Q'_J, and the feasible y_J (y_J Q' >= -1)
    are exactly the slice's vertices.  The subsets are taken in chunks, and the
    representatives with a fractional vertex y_J B' are dropped after each.

    With M = max |u|_1 * max |P| bounding every entry of Q', each determinant
    is at most k! M^k, and every product and partial sum at most k k! M^k;
    raises DegenerateInputError unless k k! M^k < 2^63.
    """
    if any(c != 1 for _, c in polar.facets):
        raise NotReflexiveError("slices need the polar of a reflexive polytope")
    if not reps:
        return []
    k = len(reps[0])
    U = np.array([u for u, _ in polar.facets], dtype=np.int64)
    M = max(sum(map(abs, u)) for u in U.tolist()) * int(np.abs(P).max())
    if k * math.factorial(k) * M**k >= 2**63:
        raise DegenerateInputError("generating points too large for int64 images")
    masks = polar._facet_vertices
    tight = ([j for j, m in enumerate(masks) if m >> i & 1] for i in range(len(polar.vertices)))
    subsets = sorted({J for facets in tight for J in combinations(facets, k)})
    B = P[np.array(reps)]
    Q = B @ U.T
    live = np.arange(len(reps))
    owners, points = [], []
    for lo in range(0, len(subsets), 4):
        J = np.array(subsets[lo : lo + 4])
        Bl, Ql = B[live], Q[live]
        # A[s, c] = Q'_J for subset c; with its row i set to 1, the
        # determinant is entry i of 1 adj A
        A = Ql[:, :, J].transpose(0, 2, 1, 3)
        ones = np.repeat(A[:, :, None], k, axis=2)
        ones[:, :, range(k), range(k)] = 1
        D = _det(A)
        N = -np.sign(D)[..., None] * _det(ones)
        D = np.abs(D)
        feasible = (D > 0) & np.all(N @ Ql >= -D[..., None], axis=-1)
        X = N @ Bl
        fractional = feasible[..., None] & (X % np.maximum(D, 1)[..., None] != 0)
        keep = ~np.any(fractional, axis=(1, 2))
        s, c = np.nonzero(feasible & keep[:, None])
        owners.append(live[s])
        points.append(X[s, c] // D[s, c, None])
        live = live[keep]
    owners, points = np.concatenate(owners), np.concatenate(points)
    kept = np.isin(owners, live)
    verts = {i: set() for i in live.tolist()}
    for i, x in zip(owners[kept].tolist(), points[kept].tolist()):
        verts[i].add(tuple(x))
    return [tuple(sorted(verts[i])) if i in verts else None for i in range(len(reps))]


def _det(A):
    """Exact determinants of the trailing k x k matrices of an int64 array,
    by the Leibniz formula: a signed sum of k! products of k entries."""
    k = A.shape[-1]
    perms, signs = _signed_permutations(k)
    return np.prod(A[..., range(k), perms], axis=-1) @ signs


@cache
def _signed_permutations(k):
    """The permutations of range(k) as the rows of an array, and their signs."""
    perms = list(permutations(range(k)))
    signs = [(-1) ** sum(a > b for a, b in combinations(p, 2)) for p in perms]
    return np.array(perms), np.array(signs)


def _candidate(basis, verts):
    """The candidate over the saturated ``basis`` whose slice has the ambient
    lattice points ``verts`` as vertices.  The slice needs no reflexivity
    test: each of its facets lies on a facet <u, .> = -1 of the polar, for u
    a vertex of the reflexive polytope, and u on the saturated lattice is
    integral and -1 on the facet's lattice vertices, so it is primitive at
    distance 1."""
    sub = la.Sublattice(basis=basis, ambient_rank=len(basis[0]))
    slice_poly = LatticePolytope.hull([sub.coords(v) for v in verts])
    # the projection of the base polytope along the annihilator of the
    # sublattice is dual to the slice of its polar, so it is the slice's polar
    return FibrationCandidate(
        sublattice=sub,
        slice_polytope=slice_poly,
        projection=slice_poly.polar(),
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
    for base in combinations(p.vertices, k):
        d, adj = la.scaled_inverse(base)
        if adj is not None:
            break
    else:
        return False
    qverts = set(q.vertices)
    for sub in combinations(q.vertices, k):
        # base * U = target has |det U| = 1 only when |det target| = |d|
        if abs(la.det(sub)) != abs(d):
            continue
        for target in permutations(sub):
            u = _solve_matrix(adj, target, d)
            if u is not None and {la.vecmat(v, u) for v in p.vertices} == qverts:
                return True
    return False


def _solve_matrix(adj_a, b, det_a):
    """Integer matrix U with a*U = b, given adj(a) and det(a); None if fractional."""
    num = la.matmul(adj_a, b)
    if any(x % det_a for row in num for x in row):
        return None
    return tuple(tuple(x // det_a for x in row) for row in num)
