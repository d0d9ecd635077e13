"""Print every ``search_fibrations`` candidate of the benchmark's fibration items.

For seeds 5 and 6, each of the 10 items of ``bench/workloads.py``
``FIBRATION_GOLDENS`` is searched on its original vertices and under one
lattice map drawn by ``workloads._unimodular(random.Random(seed), n)``, one
generator per seed, in item order: 40 searches.  Each candidate prints its
sublattice basis, its ``balanced`` flag, and the vertices and facets of its
slice and of its projection.  The last line is the md5 of the lines before it,
so two source trees answer alike when they print the same last line.  Only
public attributes are read, so older trees run it unchanged.

Run from the root of a source checkout (pytest does not collect this file):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/dump_fibrations.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from toricfib.fibsearch import search_fibrations  # noqa: E402
from toricfib.polytope import LatticePolytope  # noqa: E402


def dump_lines():
    vertices = workloads.FibrationSearch(0).vertices
    lines = []
    for seed in (5, 6):
        rng = random.Random(seed)
        for name, k, _, _ in workloads.FIBRATION_GOLDENS:
            verts = vertices[name]
            u = workloads._unimodular(rng, len(verts[0]))
            for label, vs in (("original", verts), ("mapped", workloads._transform(verts, u))):
                cands = search_fibrations(LatticePolytope.hull(vs), k)
                lines.append(f"seed {seed} {name} k={k} {label}: {len(cands)} candidates")
                for c in cands:
                    lines.append(f"  basis {c.sublattice.basis} balanced {c.balanced}")
                    for part, p in (("slice", c.slice_polytope), ("projection", c.projection)):
                        lines.append(f"    {part} vertices {p.vertices}")
                        lines.append(f"    {part} facets {p.facets}")
    return lines


if __name__ == "__main__":
    lines = dump_lines()
    print("\n".join(lines))
    print(hashlib.md5("\n".join(lines).encode()).hexdigest())
