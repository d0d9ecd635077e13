"""Print the exact geometry of the model fans, morphisms and polytopes.

For every fan of ``models.ModelGeometry`` (and the domain and codomain of
each of its morphisms) it prints the rays, ``max_cones`` and
``all_cones()``, and for every cone its ``equations``, ``ambient_ineqs``,
``facet_ray_sets()`` and ``all_face_ray_sets()``; for each morphism, its
matrix and the certificate of every domain cone.  For every model polytope, the 4-cube, ``nabla`` of the nef
partition and their polars it prints the vertices, the facets, the faces of
every dimension and the point counts; then the same for the 30 reflexive
polygons that the acceptance criterion ``property-suites`` draws.  Last come
the Mori cone generators of every complete model fan: those in
``COMPLETE_FANS`` and the mirror fan, the face fan of the polar of ``nabla``.
The last line is the md5 of the lines before it, so two source trees answer
alike when they print the same last line.  It reads only public names, so it
runs against any tree with ``models.ModelGeometry``.

Run from the root of a source checkout (pytest does not collect this file):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/dump_geometry.py
"""

from __future__ import annotations

import hashlib
import itertools
import random

from toricfib import models
from toricfib.errors import ToricError
from toricfib.fans import face_fan, mori_cone
from toricfib.polytope import LatticePolytope

FANS = (
    "base_fan",
    "line_fan",
    "ci_face_fan",
    "ci_fan",
    "ci_partial",
    "hyp_fan_6",
    "hyp_fan_12",
)
COMPLETE_FANS = ("base_fan", "ci_face_fan", "ci_fan", "hyp_fan_6", "hyp_fan_12")
MORPHISMS = ("beta12", "transition")
POLYTOPES = ("ci_polar", "hyp_simplex", "k3_simplex", "base_pentagon")


def _sets(sets):
    return [sorted(s) for s in sets]


def fan_lines(name, fan):
    lines = [
        f"fan {name} rank {fan.rank}",
        f"  rays {fan.rays}",
        f"  max_cones {fan.max_cones}",
    ]
    cones = fan.all_cones()
    lines.append(f"  all_cones {_sets(cones)}")
    for c in cones:
        geom = fan.cone_geom(c)
        lines.append(f"  cone {sorted(c)}")
        lines.append(f"    equations {geom.equations}")
        lines.append(f"    ambient_ineqs {geom.ambient_ineqs}")
        lines.append(f"    facet_ray_sets {_sets(geom.facet_ray_sets())}")
        lines.append(f"    all_face_ray_sets {_sets(geom.all_face_ray_sets())}")
    return lines


def morphism_lines(name, phi):
    lines = [f"morphism {name} matrix {phi.matrix}"]
    lines += fan_lines(f"{name}.domain", phi.domain)
    lines += fan_lines(f"{name}.codomain", phi.codomain)
    for c in phi.domain.all_cones():
        lines.append(f"  cert {sorted(c)} -> {sorted(phi.cert(c))}")
    return lines


def polytope_lines(name, p):
    interior, boundary = p.lattice_points()
    lines = [
        f"polytope {name} rank {p.rank}",
        f"  vertices {p.vertices}",
        f"  facets {p.facets}",
        f"  points {p.npoints()} interior {len(interior)} boundary {len(boundary)}",
    ]
    for d in range(p.rank):
        for f in p.faces(d):
            lines.append(
                f"  face dim {f.dim} vertices {sorted(f.vertex_indices)} "
                f"facets {sorted(f.tight_facets)} points {f.npoints} interior {f.ninterior}"
            )
    return lines


def _with_polar(name, p):
    lines = polytope_lines(name, p)
    try:
        lines += polytope_lines(f"{name}.polar", p.polar())
    except ToricError as e:
        lines.append(f"  polar {type(e).__name__}")
    return lines


def property_suite_polygons():
    """The reflexive polygons drawn by criterion ``property-suites``."""
    rng = random.Random(1234)
    found, attempts = [], 0
    while len(found) < 30 and attempts < 4000:
        attempts += 1
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
        try:
            p = LatticePolytope.hull(pts)
        except ToricError:
            continue
        if p.is_reflexive():
            found.append(p)
    return found


def dump_lines():
    ctx = models.ModelGeometry(models.Fixtures())
    lines = []
    for name in FANS:
        lines += fan_lines(name, getattr(ctx, name))
    for name in MORPHISMS:
        lines += morphism_lines(name, getattr(ctx, name))
    for name in POLYTOPES:
        lines += _with_polar(name, getattr(ctx, name))
    cube4 = LatticePolytope.hull(list(itertools.product((-1, 1), repeat=4)))
    lines += _with_polar("cube4", cube4)
    lines += _with_polar("nabla", ctx.nef_partition.nabla)
    for i, p in enumerate(property_suite_polygons()):
        lines += polytope_lines(f"polygon {i}", p)
    for name in COMPLETE_FANS:
        lines.append(f"mori {name} {mori_cone(getattr(ctx, name))}")
    lines.append(f"mori mirror {mori_cone(face_fan(ctx.nef_partition.nabla.polar()))}")
    return lines


if __name__ == "__main__":
    lines = dump_lines()
    print("\n".join(lines))
    print(hashlib.md5("\n".join(lines).encode()).hexdigest())
