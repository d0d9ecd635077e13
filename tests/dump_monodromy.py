"""Print the singular values and loop monodromies of the double cover's families.

For both root families of ``models.DOUBLE_COVER_FAMILIES``, named a and b,
it prints the singular values and isolation radii of ``singular_parameters``
at 128 and 256 bits, to 60 digits.  Then, at 128 and at 256 bits, for each of
the seven distinct singular values, three loop radii and both families, the
permutation of ``track_roots`` and its residual to 20 digits, and last the
loop at infinity of both families.  Then come two md5 lines.  The first is
the md5 of the lines before it, so two source trees print the same numbers
when they print the same md5.  The last, ``answers <md5>``, is taken over the
same lines with each loop line's residual field dropped, so two trees give
the same singular values and permutations when they print the same last line,
even where a rounding-level residual differs.  Only public names are used,
so every tree that has ``models.DOUBLE_COVER_FAMILIES`` runs it unchanged.

Run from the root of a source checkout (pytest does not collect this file):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/dump_monodromy.py
"""

from __future__ import annotations

import hashlib

import mpmath as mp

from toricfib import models
from toricfib.monodromy import (
    Loop,
    RootFamily,
    singular_parameters,
    track_loop_at_infinity,
    track_roots,
)

PRECISIONS = (128, 256)
RADII = ("1e-4", "1e-5", "1e-7")
BASE = mp.mpf(-1) / 10


def dump_lines():
    families = [(name, RootFamily.build(c)) for name, c in zip("ab", models.DOUBLE_COVER_FAMILIES)]
    lines = []
    with mp.workprec(256):
        for prec in PRECISIONS:
            for name, fam in families:
                for v, radius in singular_parameters(fam, prec):
                    lines.append(f"sing {name} {prec} {mp.nstr(v, 60)} radius {mp.nstr(radius, 60)}")
    with mp.workprec(128):
        centers = []
        for _, fam in families:
            centers += [v for v, _ in singular_parameters(fam, 128)]
        centers = sorted(centers, key=lambda v: (mp.re(v), mp.im(v)))
        centers = [v for i, v in enumerate(centers) if all(abs(v - u) > 1e-6 for u in centers[:i])]
    for prec in PRECISIONS:
        for v in centers:
            for r in RADII:
                for name, fam in families:
                    loop = Loop(base=BASE, center=v, radius=mp.mpf(r))
                    perm, residual = track_roots(fam, loop, prec)
                    lines.append(
                        f"loop {prec} {mp.nstr(v, 8)} r={r} {name} {perm} {mp.nstr(residual, 20)}"
                    )
        for name, fam in families:
            perm, residual = track_loop_at_infinity(fam, BASE, 4.0, prec)
            lines.append(f"loop {prec} inf {name} {perm} {mp.nstr(residual, 20)}")
    return lines


if __name__ == "__main__":
    lines = dump_lines()
    print("\n".join(lines))
    print(hashlib.md5("\n".join(lines).encode()).hexdigest())
    answers = [line.rsplit(" ", 1)[0] if line.startswith("loop ") else line for line in lines]
    print("answers", hashlib.md5("\n".join(answers).encode()).hexdigest())
