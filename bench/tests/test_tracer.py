"""Tests of the benchmark's tracer.

    python3 -m pytest -q bench/tests
"""

import cProfile
import pstats
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from toricfib import dd, fans, polytope  # noqa: E402
from toricfib import exactlinalg as la  # noqa: E402
from toricfib.errors import NotFullDimensionalError  # noqa: E402

TRIANGLE = [(1, 0), (0, 1), (-1, -1)]


@pytest.fixture
def tracer():
    t = Tracer().install()
    yield t
    t.uninstall()


def _calls():
    return (
        la.hermite_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
        dd.extreme_rays([(1, 0), (0, 1), (1, 1)], 2),
        polytope.LatticePolytope.hull(TRIANGLE).polar().vertices,
        fans.face_fan(polytope.LatticePolytope.hull(TRIANGLE)).nrays(),
    )


def test_wrappers_return_and_raise_like_the_originals():
    originals = (la.hermite_form, dd.extreme_rays, fans.ConeGeom.__dict__["contains"])
    want = _calls()
    t = Tracer().install()
    try:
        assert fans.extreme_rays is dd.extreme_rays is polytope.extreme_rays
        assert dd.extreme_rays is not originals[1]
        t.on = True
        assert _calls() == want
        with pytest.raises(ValueError, match="empty matrix"):
            la.hermite_form([])
        with pytest.raises(NotFullDimensionalError):
            polytope.LatticePolytope.hull([(0, 0), (1, 1)])
        t.on = False
        assert t._stack == []
        assert t.count("exactlinalg.hermite_form") >= 2
        assert t.count("polytope.LatticePolytope.hull") >= 3
    finally:
        t.uninstall()
    assert (la.hermite_form, dd.extreme_rays, fans.ConeGeom.__dict__["contains"]) == originals
    assert polytope.extreme_rays is dd.extreme_rays


def _ncalls(stats, wrapper):
    code = wrapper.__wrapped__.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats[key][1] if key in stats else 0


def test_counts_match_cprofile_on_a_fan_pipeline_pass(tracer):
    w = workloads.FanPipeline(0)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    result = w.run_pass(tracer)
    profile.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(profile).stats
    snap = tracer.snapshot()["functions"]
    for name, wrapper in (
        ("exactlinalg.hermite_form", la.hermite_form),
        ("dd.extreme_rays", dd.extreme_rays),
        ("fans.ConeGeom.contains", fans.ConeGeom.__dict__["contains"]),
    ):
        assert snap[name]["calls"] == _ncalls(stats, wrapper) > 0, name

    layers = tracer.snapshot()["layers"]
    self_total = sum(v["self_s"] for v in layers.values())
    assert all(v["self_s"] >= 0 for v in layers.values())
    assert 0 < self_total <= result.seconds + 1e-9
    assert result.seconds <= wall
    assert len(result.items) == 16
