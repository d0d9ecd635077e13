"""The three benchmark workloads.

A workload is built from a seed (its set-up) and then runs passes.  A pass is a
closed loop over the workload's items: each item is one call into toricfib,
timed on its own, and the next starts when the previous one has returned.
Every item is checked against a golden or an invariant frozen here; a failed
check or an exception marks the item failed and never stops the pass.

Only the calls into toricfib are timed, and only they are traced: the checks
run with the clock and the tracer stopped.  toricfib is reached through its
modules' attributes, never through names bound at import time, so that a
tracer installed after this module was imported sees every call.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from toricfib import acceptance, fibsearch, monodromy, polytope


@dataclass
class ItemResult:
    name: str
    seconds: float
    failures: list


@dataclass
class PassResult:
    seconds: float  # timed calls only: the items plus any per-pass preparation
    items: list
    extra: dict = field(default_factory=dict)


class _Clock:
    """Times calls into toricfib and switches the tracer on around them only."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        """Returns (result, seconds, failure); failure is None or the exception text."""
        tracer = self.tracer
        if tracer is not None:
            tracer.on = True
        start = time.perf_counter()
        try:
            out, failure = fn(*args, **kwargs), None
        except Exception as exc:  # an item that raises is a failed item
            out, failure = None, f"exception: {type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - start
            if tracer is not None:
                tracer.on = False
        self.seconds += dt
        return out, dt, failure


# -- monodromy-loops ----------------------------------------------------------

# The two cubic root families of the double cover (acceptance criterion 15).
FAMILIES = (
    ("a", [[0] * 11 + [-2, 0, -2], [0], [0, 0, 0, 0, Fraction(-1, 4)], [1]]),
    ("b", [[0] * 11 + [2, 0, 2], [0], [0, 0, 0, 0, Fraction(-1, 4)], [1]]),
)
_Q = 1 / 1728
_QI = math.sqrt(1 - _Q * _Q)
# Criterion-15 table frozen by coordinates: singular value -> cycle types of
# the loop around it, for family a and family b.
LOOP_TABLE = (
    (complex(0, 0), ((3,), (3,))),
    (complex(0, 1), ((2, 1), (2, 1))),
    (complex(0, -1), ((2, 1), (2, 1))),
    (complex(-_Q, _QI), ((2, 1), (1, 1, 1))),
    (complex(-_Q, -_QI), ((2, 1), (1, 1, 1))),
    (complex(_Q, _QI), ((1, 1, 1), (2, 1))),
    (complex(_Q, -_QI), ((1, 1, 1), (2, 1))),
)
INFINITY_TYPES = ((3,), (3,))
INFINITY_RADIUS = 4.0
BASE = Fraction(-1, 10)
PRECISIONS = (128, 256)
# Finite-loop radii are drawn log-uniformly from this range; the loop
# validation accepts all of it with the base point at -1/10.
RADIUS_RANGE = (1e-7, 2e-4)
RESIDUAL_BOUND = 1e-20
GROUP_ORDER = 36


def _six(pa, pb):
    return tuple(list(pa) + [p + 3 for p in pb])


class MonodromyLoops:
    """Root tracking around every singular fibre, at 128 and at 256 bits.

    A pass tracks the 7 finite loops and the loop at infinity for both
    families at each precision: 32 ``track_roots``/``track_loop_at_infinity``
    items.  The seed draws each finite loop's radius, per pass.
    """

    def __init__(self, seed):
        self.families = [(n, monodromy.RootFamily.build(c)) for n, c in FAMILIES]
        self.rng = random.Random(seed)

    def _radii(self):
        lo, hi = (math.log10(r) for r in RADIUS_RANGE)
        return [10 ** self.rng.uniform(lo, hi) for _ in LOOP_TABLE]

    def run_pass(self, tracer=None):
        clock = _Clock(tracer)
        radii = self._radii()
        items, perms128 = [], {}
        residual_max = 0.0
        for prec in PRECISIONS:
            with mp.workprec(prec):
                prec_items, perms = [], {}
                base = mp.mpc(BASE.numerator) / BASE.denominator
                sings, failed = {}, []
                for fname, fam in self.families:
                    sings[fname], _, failure = clock.call(
                        monodromy.singular_parameters, fam, prec
                    )
                    if failure:
                        failed.append(f"singular_parameters: {failure}")
                if failed:  # nothing to track at this precision
                    items.extend(
                        ItemResult(f"{prec}:{i}:{fname}", 0.0, failed)
                        for i in range(len(LOOP_TABLE) + 1)
                        for fname, _ in self.families
                    )
                    continue
                allsing = sings["a"] + sings["b"]
                loops = []
                for (where, types), radius in zip(LOOP_TABLE, radii):
                    center = min((v for v, _ in allsing), key=lambda v: abs(v - where))
                    note = [] if abs(center - where) < 1e-9 else [f"no singular value at {where}"]
                    loop = monodromy.Loop(
                        base=base, center=center, radius=mp.mpf(radius), margin=0.5
                    )
                    loops.append((f"{where.real:+.5f}{where.imag:+.5f}i", center, types, note, loop))
                for key, center, types, note, loop in loops + [
                    ("inf", None, INFINITY_TYPES, [], None)
                ]:
                    for (fname, fam), want in zip(self.families, types):
                        if loop is None:
                            out, dt, failure = clock.call(
                                monodromy.track_loop_at_infinity,
                                fam, base, INFINITY_RADIUS, prec, _singulars=sings[fname],
                            )
                        else:
                            out, dt, failure = clock.call(
                                monodromy.track_roots, fam, loop, prec, _singulars=allsing
                            )
                        fails = list(note)
                        if failure:
                            fails.append(failure)
                        else:
                            perm, residual = out
                            perms[key, fname] = perm
                            residual_max = max(residual_max, float(residual))
                            if monodromy.cycle_type(perm) != want:
                                fails.append(f"cycle type {monodromy.cycle_type(perm)} != {want}")
                            if not residual < RESIDUAL_BOUND:
                                fails.append(f"residual {mp.nstr(residual, 3)}")
                            if prec != PRECISIONS[0] and perms128.get((key, fname)) != perm:
                                fails.append("permutation differs from the 128-bit one")
                        prec_items.append(ItemResult(f"{prec}:{key}:{fname}", dt, fails))
                pass_fails = self._group_checks(perms, loops, base)
                for item in prec_items:
                    item.failures.extend(pass_fails)
                items.extend(prec_items)
                if prec == PRECISIONS[0]:
                    perms128 = perms
        return PassResult(clock.seconds, items, {"residual_max": residual_max})

    def _group_checks(self, perms, loops, base):
        """Whole-pass invariants: group order and trivial total monodromy."""
        keys = [key for key, *_ in loops] + ["inf"]
        six = {}
        for key in keys:
            if (key, "a") not in perms or (key, "b") not in perms:
                return ["a loop failed, group not checked"]
            six[key] = _six(perms[key, "a"], perms[key, "b"])
        fails = []
        if monodromy.group_order(list(six.values())) != GROUP_ORDER:
            fails.append(f"group order is not {GROUP_ORDER}")
        # loops composed in descending angular order about the base, infinity last
        order = sorted(loops, key=lambda t: mp.arg(t[1] - base), reverse=True)
        prod = tuple(range(6))
        for key, *_ in order:
            prod = monodromy.compose(prod, six[key])
        prod = monodromy.compose(prod, six["inf"])
        if prod != tuple(range(6)):
            fails.append("total monodromy is not the identity")
        return fails


# -- fan-pipeline -------------------------------------------------------------

# A failure present at the commit that defined this benchmark, with its exact
# detail.  It still counts as a failed item; ``correct`` only flags failures
# that are not listed here.
KNOWN_FAILURES = {"cy-equations": ["gauged hypersurface rendering"]}


class FanPipeline:
    """Every acceptance criterion except the monodromy table, in order.

    Each pass starts from a fresh ``acceptance._Ctx``, so the fans, morphisms
    and fixtures are rebuilt as a user running the verification pays.  The
    inputs are the bundled fixtures; the seed is not used.
    """

    def __init__(self, seed):
        self.criteria = [
            (name, fn) for name, fn in acceptance.CRITERIA if name != "monodromy-table"
        ]

    def run_pass(self, tracer=None):
        clock = _Clock(tracer)
        ctx = acceptance._Ctx(acceptance.Fixtures())
        items = []
        for name, fn in self.criteria:
            out, dt, failure = clock.call(fn, ctx)
            fails = [failure] if failure else list(out)
            items.append(ItemResult(name, dt, fails))
        return PassResult(clock.seconds, items)


# -- fibration-search -----------------------------------------------------------

# (polytope, fibre dimension, candidates, balanced candidates), frozen from the
# untransformed polytopes; both counts are invariant under lattice maps.
FIBRATION_GOLDENS = (
    ("hyp_simplex", 1, 3, 3),
    ("hyp_simplex", 2, 6, 3),
    ("hyp_simplex", 3, 9, 2),
    ("hyp_polar", 3, 1, 1),
    ("k3_simplex", 1, 2, 2),
    ("k3_simplex", 2, 2, 1),
    ("k3_polar", 2, 1, 1),
    ("cube4", 2, 6, 6),
    ("ci_polar", 1, 1, 1),
    ("ci_polar", 2, 1, 1),
)
MAX_ROW_OPS = 4


def _unimodular(rng, n):
    """Product of 1..MAX_ROW_OPS elementary operations row_i += +-row_j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, MAX_ROW_OPS)):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return u


def _transform(vertices, u):
    n = len(u)
    return [tuple(sum(v[i] * u[i][c] for i in range(n)) for c in range(n)) for v in vertices]


class FibrationSearch:
    """``search_fibrations`` over ten (polytope, fibre dimension) items.

    Each pass maps every polytope by a fresh unimodular matrix drawn from the
    seed, so coefficient sizes vary while the answers stay fixed.  An item is
    the hull of the mapped vertices followed by the search.
    """

    def __init__(self, seed):
        fx = acceptance.Fixtures()
        hyp = fx.polytope("hyp_simplex")
        k3 = fx.polytope("k3_simplex")
        cube = polytope.LatticePolytope.hull(list(itertools.product((-1, 1), repeat=4)))
        self.vertices = {
            "hyp_simplex": hyp.vertices,
            "hyp_polar": hyp.polar().vertices,
            "k3_simplex": k3.vertices,
            "k3_polar": k3.polar().vertices,
            "cube4": cube.vertices,
            "ci_polar": fx.polytope("ci_polar").vertices,
        }
        self.rng = random.Random(seed)

    def _search(self, vertices, k):
        return fibsearch.search_fibrations(polytope.LatticePolytope.hull(vertices), k)

    def run_pass(self, tracer=None):
        clock = _Clock(tracer)
        items = []
        candidates = vfi_calls = 0
        for name, k, want, want_balanced in FIBRATION_GOLDENS:
            verts = self.vertices[name]
            mapped = _transform(verts, _unimodular(self.rng, len(verts[0])))
            before = tracer.count("cy.vertices_from_inequalities") if tracer else 0
            out, dt, failure = clock.call(self._search, mapped, k)
            if tracer:
                vfi_calls += tracer.count("cy.vertices_from_inequalities") - before
            fails = [failure] if failure else []
            if out is not None:
                candidates += len(out)
                if len(out) != want:
                    fails.append(f"{len(out)} candidates, expected {want}")
                balanced = sum(c.balanced for c in out)
                if balanced != want_balanced:
                    fails.append(f"{balanced} balanced, expected {want_balanced}")
                if not all(
                    c.slice_polytope.is_reflexive() and c.projection.is_reflexive()
                    for c in out
                ):
                    fails.append("a slice or projection is not reflexive")
            items.append(ItemResult(f"{name}:k={k}", dt, fails))
        return PassResult(
            clock.seconds, items, {"candidates": candidates, "vfi_calls": vfi_calls}
        )


WORKLOADS = {
    "monodromy-loops": MonodromyLoops,
    "fan-pipeline": FanPipeline,
    "fibration-search": FibrationSearch,
}
