"""Benchmark of toricfib: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload fan-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs untraced passes, then traced ones, and reports the
per-layer metrics (spans go to ``bench/out/``).  ``--workload all`` runs the
three workloads one after another, each in its own process.  The last line of
standard output is always one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("monodromy-loops", "fan-pipeline", "fibration-search")
SETUP_SAMPLES = 7  # this process plus six fresh ones
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_toricfib():
    """Import toricfib from this checkout's src, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "toricfib" / "__init__.py").is_file():
        sys.exit(f"error: no toricfib sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import toricfib

    if Path(toricfib.__file__).resolve().parent != (src / "toricfib").resolve():
        sys.exit(f"error: toricfib was imported from {toricfib.__file__}, not {src}")


def setup(name, seed):
    """Import the package and generate the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    import_toricfib()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    return w, time.perf_counter() - start


def setup_in_fresh_process(name, seed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name]
    cmd += ["--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_passes(w, seconds, tracer=None):
    """Whole passes, at least one, while another pass as long as the last
    still fits in ``seconds``."""
    passes, snaps = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.pass_id = len(passes)
        begin = time.perf_counter()
        passes.append(w.run_pass(tracer))
        if tracer is not None:
            snaps.append(tracer.snapshot())
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            return passes, snaps


def metric(value, unit):
    return {"value": value, "unit": unit}


def item_summary(passes):
    import workloads

    items = [it for p in passes for it in p.items]
    failed = [it for it in items if it.failures]
    unknown = [it for it in failed if it.failures != workloads.KNOWN_FAILURES.get(it.name)]
    return items, failed, unknown


def end_to_end(passes, setup_samples):
    items, failed, _ = item_summary(passes)
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "pass_s": metric(statistics.median(p.seconds for p in passes), "s"),
        "ok_frac": metric(1 - len(failed) / len(items), "1"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, snaps, traced, untraced, setup_snap):
    med = statistics.median

    def fn(key, *names):
        return [sum(s["functions"].get(n, {}).get(key, 0) for n in names) for s in snaps]

    def frac(num, den):
        return med(a / b if b else 0.0 for a, b in zip(num, den))

    out = {}
    for layer in tracer.layers:
        out[f"{layer}.self_s"] = metric(med(s["layers"][layer]["self_s"] for s in snaps), "s")
        out[f"{layer}.calls"] = metric(med(s["layers"][layer]["calls"] for s in snaps), "count")
    track = ("monodromy.track_roots", "monodromy.track_loop_at_infinity")
    out["monodromy.track.calls"] = metric(med(fn("calls", *track)), "count")
    out["monodromy.track.self_s"] = metric(med(fn("self_s", *track)), "s")
    out["monodromy.singular_parameters.self_s"] = metric(
        med(fn("self_s", "monodromy.singular_parameters")), "s"
    )
    out["monodromy.residual_max"] = metric(
        max(p.extra.get("residual_max", 0.0) for p in traced), "1"
    )
    out["fans.ConeGeom.calls"] = metric(med(fn("calls", "fans.ConeGeom")), "count")
    out["fans.ConeGeom.contains.calls"] = metric(med(fn("calls", "fans.ConeGeom.contains")), "count")
    for short, name in (("exactlinalg.hermite_form", "exactlinalg.hermite_form"),
                        ("dd.extreme_rays", "dd.extreme_rays")):
        calls = fn("calls", name)
        out[f"{short}.calls"] = metric(med(calls), "count")
        out[f"{short}.repeat_frac"] = metric(frac(fn("repeats", name), calls), "1")
    out["polytope.hull.calls"] = metric(med(fn("calls", "polytope.LatticePolytope.hull")), "count")
    out["polytope.lattice_points.calls"] = metric(
        med(fn("calls", "polytope.enumerate_lattice_points")), "count"
    )
    out["fibsearch.candidate_yield"] = metric(
        frac([p.extra.get("candidates", 0) for p in traced],
             [p.extra.get("vfi_calls", 0) for p in traced]), "1"
    )
    out["jsonio.setup_self_s"] = metric(setup_snap["layers"]["jsonio"]["self_s"], "s")
    out["trace.overhead_frac"] = metric(
        med(p.seconds for p in traced) / med(p.seconds for p in untraced) - 1, "1"
    )
    return out


def run_info(args, passes, items, extra=None):
    import mpmath
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "items": len(items),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    info.update(extra or {})
    return info


def report(args, info, metrics, passes):
    items, failed, unknown = item_summary(passes)
    for k, v in info.items():
        print(f"# {k}: {v}")
    unknown_ids = {id(it) for it in unknown}
    for it in failed:
        tag = "FAILED" if id(it) in unknown_ids else "known failure"
        print(f"# {tag}: {it.name}: {'; '.join(it.failures)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))


def run_one(args):
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed)
        print(repr(seconds))
        return 0
    if args.trace:
        return run_traced(args)
    w, own = setup(args.workload, args.seed)
    samples = [own] + [setup_in_fresh_process(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - 1)]
    passes, _ = run_passes(w, args.seconds)
    items = [it for p in passes for it in p.items]
    ms = sorted(it.seconds * 1000 for it in items)
    extra = {"setup_samples": len(samples), "pass_samples": len(passes), "item_samples": len(ms)}
    # Item latencies are shown, not declared: items of one pass differ by up to
    # three orders of magnitude, so their pooled median jumps between item
    # kinds from run to run.  A percentile is shown only with at least ten
    # samples beyond it.
    extra["item_p50_ms"] = statistics.median(ms)
    extra["item_p90_ms"] = ms[int(0.9 * len(ms))] if len(ms) >= 100 else None
    extra["item_gmean_ms"] = statistics.geometric_mean(x for x in ms if x > 0)
    report(args, run_info(args, passes, items, extra), end_to_end(passes, samples), passes)
    return 0


def run_traced(args):
    import_toricfib()
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer().install()
    tracer.on = True
    w = workloads.WORKLOADS[args.workload](args.seed)
    tracer.on = False
    setup_snap = tracer.snapshot()
    untraced, _ = run_passes(w, args.seconds / 2)
    traced, snaps = run_passes(w, args.seconds / 2, tracer)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    passes = untraced + traced
    items = [it for p in passes for it in p.items]
    extra = {"untraced_passes": len(untraced), "traced_passes": len(traced),
             "spans": tracer.nspans(), "spans_dropped": tracer.spans_dropped}
    metrics = per_layer(tracer, snaps, traced, untraced, setup_snap)
    tracer.uninstall()
    report(args, run_info(args, passes, items, extra), metrics, passes)
    return 0


def run_all(args):
    """Each workload in its own process, then every metric by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported; children inherit it
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
