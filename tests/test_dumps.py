"""The four dump scripts still print their frozen last lines.

Each script prints the exact output of one layer and, last, an md5 of what
it printed; equal last lines mean equal answers.  ``dump_monodromy.py`` ends
with two: the md5 of its full output, each loop's residual included, and
then that of its answers, which drops the residuals.  They run in
subprocesses with a fixed hash seed, as their docstrings say to run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAST_LINES = {
    "dump_geometry.py": ["589c25118d91084b1aba71caebdddb52"],
    "dump_fibrations.py": ["022c7e70d802735acee41bcbbe27c2fc"],
    "dump_equations.py": ["0ee3eff564e4235f53acba62f71608bf"],
    "dump_monodromy.py": [
        "93d17f2d0f6fff11cbc639556f2d7bd2",
        "answers 21b2ca53ff0b37ae155b2432531697cb",
    ],
}


@pytest.mark.parametrize("script", sorted(LAST_LINES))
def test_dump_last_line(script):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(["src", "bench"]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    want = LAST_LINES[script]
    assert out.splitlines()[-len(want):] == want
