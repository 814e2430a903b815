"""bnlab benchmark: one workload for a fixed number of seconds, one JSON result line.

    python3 perfbench/run.py --workload mc_flux --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; bnlab is imported from ./src. A run
builds the workload (set-up), then repeats passes over the workload's
operations back to back (a closed loop, one process) until the time is up.
Every pass uses the same inputs, so passes must also agree bit for bit.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced reference
pass, then traced passes, and prints the per-layer metrics. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it is a record with the environment, sizes and per-operation
diagnostics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3          # this process plus two fresh interpreters


def _import_bnlab():
    """Import the workloads (numpy, scipy, bnlab); exit with status 1 without the sources."""
    if not (ROOT / "src" / "bnlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bnlab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def _out_dir():
    return ROOT / ".perfbench_out" / str(os.getpid())


def setup_probe(workload, seed):
    """Seconds to import and build the workload, measured in this process."""
    t0 = time.perf_counter()
    wl = _import_bnlab()
    wl.build(workload, seed, _out_dir())
    return time.perf_counter() - t0


def _setup_samples(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def run_pass(ops, results):
    """Run every operation once; return the pass wall time.

    An operation fails when it raises, when its check fails, or when its
    output digest differs from the one of its first run: every pass has the
    same inputs, traced or not.
    """
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception as exc:        # a raising operation counts as failed
            res, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        entry = results.setdefault(op.name, {"attempted": 0, "failed": 0, "seconds": []})
        entry["attempted"] += 1
        entry["seconds"].append(dt)
        if res is not None:
            entry.setdefault("digest", res.digest)
            entry.update(checks=res.checks, sizes=res.sizes, paths=res.paths)
            if res.digest != entry["digest"]:
                err = f"output digest {res.digest} differs from the first run's"
        if err or not res.ok:
            entry["failed"] += 1
            entry["error"] = err or "check failed"
    return time.perf_counter() - t_pass


def run_passes(ops, results, seconds, start):
    """Passes back to back while another pass is expected to end within `seconds`."""
    times = []
    while True:
        times.append(run_pass(ops, results))
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def _environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = next((v.get("version") for v in
                 numpy.show_config(mode="dicts").get("Build Dependencies", {}).values()
                 if isinstance(v, dict) and "openblas" in str(v.get("name", ""))), None)
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "bnlab").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": blas,
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu": cpu, "nproc": os.cpu_count()}


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc_flux", "mc_modes", "mc_paths", "certify"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        shutil.rmtree(_out_dir(), ignore_errors=True)
        return 0

    wl = _import_bnlab()
    t_import = time.perf_counter() - t_start
    out_dir = _out_dir()
    results = {}
    try:
        if args.trace:
            metrics, units, record = _traced_run(wl, args, results, out_dir, t_import)
        else:
            metrics, units, record = _timed_run(wl, args, results, out_dir, t_import)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": wl.WHY[args.workload], "family_alpha": wl.FAMILY_ALPHA,
        "n_passes": len(record["passes"]), "fail_frac": failed / max(attempted, 1),
        "environment": _environment(),
        "operations": results,
    })
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def _timed_run(wl, args, results, out_dir, t_import):
    """Set-up samples, then untraced passes; end-to-end metrics."""
    t0 = time.perf_counter()
    ops = wl.build(args.workload, args.seed, out_dir)
    setup = [t_import + time.perf_counter() - t0] + _setup_samples(args.workload, args.seed)
    passes = run_passes(ops, results, args.seconds, time.perf_counter())
    metrics = {
        "run_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    record = {"passes": passes, "setup_samples": setup}
    mc = [r for r in results.values() if r.get("paths")]
    if mc:
        paths = sum(r["paths"] * r["attempted"] for r in mc)
        record["paths_per_s"] = paths / sum(sum(r["seconds"]) for r in mc)
    return metrics, units, record


def _traced_run(wl, args, results, out_dir, t_import):
    """Untraced reference pass, then traced passes; per-layer metrics are pass medians."""
    import spans
    tracer = spans.Tracer()
    with tracer:
        ops = wl.build(args.workload, args.seed, out_dir)
    setup = tracer.metrics()
    start = time.perf_counter()
    ref_s = run_pass(ops, results)
    per_pass, traced_s = [], []
    with tracer:
        while True:
            tracer.reset()
            dt = run_pass(ops, results)
            m = tracer.metrics()
            m["trace.unattributed_s"] = dt - sum(tracer.layer_self_s().values())
            per_pass.append(m)
            traced_s.append(dt)
            if time.perf_counter() - start + statistics.median(traced_s) > args.seconds:
                break
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    run_s = statistics.median(traced_s)
    metrics.update({
        "trace.run_s": run_s,
        "trace.overhead_frac": (run_s - ref_s) / ref_s,
        "mc.paths_per_s": sum(r.get("paths", 0) for r in results.values()) / run_s,
        "setup.import_s": t_import,
        "setup.geometry.grid.s": setup["geometry.grid.s"],
        "setup.scenarios.build_setup.s": setup["scenarios.build_setup.s"],
    })
    units = {k: unit_of(k) for k in metrics}
    return metrics, units, {"passes": traced_s, "reference_pass_s": ref_s}


def unit_of(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
