"""The ``toricfib`` console script.

``toricfib verify [--only NAME] [--json]`` runs the bundled acceptance
criteria and prints, for each, its name, whether it passed, its wall time in
seconds and its failure detail; the exit status is 1 if any criterion failed.

``toricfib fibrations FILE --dim K [--json]`` reads a polytope in the
``jsonio`` format and prints every torically induced fibration with fibres of
dimension K: the sublattice basis, the ``balanced`` flag, and the vertices of
the slice and of the projection.  A ``ToricError`` prints its ``as_json()``
payload and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import acceptance, fibsearch, jsonio
from .errors import ToricError


def _parser():
    parser = argparse.ArgumentParser(prog="toricfib")
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument(
        "--only",
        metavar="NAME",
        choices=[name for name, _ in acceptance.CRITERIA],
        help="run one criterion",
    )
    verify.add_argument("--json", action="store_true", help="print a JSON list")
    fibrations = commands.add_parser(
        "fibrations", help="search a reflexive polytope for fibrations"
    )
    fibrations.add_argument("file", type=argparse.FileType("r"), metavar="FILE")
    fibrations.add_argument(
        "--dim", type=int, required=True, metavar="K", help="fibre dimension"
    )
    fibrations.add_argument("--json", action="store_true", help="print a JSON list")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "fibrations":
        return _fibrations(args)
    results = acceptance.run(only=args.only)
    if args.json:
        print(json.dumps([asdict(r) for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name:<20} {r.seconds:8.3f}s  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def _fibrations(args):
    try:
        with args.file as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                raise jsonio.ParseError(f"not JSON: {e}") from e
        delta = jsonio.polytope_from_json(data)
        cands = fibsearch.search_fibrations(delta, args.dim)
    except ToricError as e:
        print(json.dumps(e.as_json()))
        return 1
    out = [
        {
            "basis": jsonio.matrix_to_json(c.sublattice.basis),
            "balanced": c.balanced,
            "slice": jsonio.polytope_to_json(c.slice_polytope),
            "projection": jsonio.polytope_to_json(c.projection),
        }
        for c in cands
    ]
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for c in out:
            print(
                f"basis {c['basis']} balanced {c['balanced']}"
                f" slice {c['slice']['vertices']}"
                f" projection {c['projection']['vertices']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
