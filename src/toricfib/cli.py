"""The ``toricfib`` console script.

``toricfib verify [--only NAME] [--json]`` runs the bundled acceptance
criteria and prints, for each, its name, whether it passed, its wall time in
seconds and its failure detail; the exit status is 1 if any criterion failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import acceptance


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
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    results = acceptance.run(only=args.only)
    if args.json:
        print(json.dumps([asdict(r) for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name:<20} {r.seconds:8.3f}s  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
