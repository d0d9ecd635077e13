"""One pass of each benchmark workload, with seed 1: no item may fail.

A change that would lower a workload's ``ok_frac`` fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_has_no_failed_item(name):
    result = workloads.WORKLOADS[name](1).run_pass()
    assert result.items
    failed = {it.name: it.failures for it in result.items if it.failures}
    assert failed == {}
