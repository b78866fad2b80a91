"""psqm benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload verify-256 --seed 1234 --seconds 45 --trace 0

Run from the root of a psqm checkout; psqm is imported from its `src/`.
`--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
alternates untraced and traced iterations and reports the per-layer
metrics.  The last line of standard output is the result object; the
full record (machine, per-check margins, iteration times) goes to
`perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer  # standard library only: safe before the thread limits

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # fresh-interpreter set-ups per run; setup_s is their median
# Untraced iterations per run, at least.  wall_s is the fastest of them:
# on a shared host a slower iteration measures the neighbours' load.
MIN_ITERATIONS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    # must run before numpy is imported
    for var in BLAS_ENV:
        os.environ[var] = str(_nproc())


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-256", "grid-1024"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)  # child process: time one set-up
    return ap.parse_args(argv)


def _workdir(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}"


def _setup(args, workdir: Path):
    """Import psqm from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import workloads
    import psqm
    if Path(psqm.__file__).resolve().parent != SRC / "psqm":
        raise RuntimeError(f"psqm imported from {psqm.__file__}, not from {SRC}")
    setup, run = workloads.WORKLOADS[args.workload]
    return workloads, run, setup(args.seed, workdir)


def _probe_setup_s(args) -> float:
    """Set-up time in a fresh interpreter: psqm import plus inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _machine(seed: int) -> dict:
    import numpy
    import scipy
    rec = {"nproc": _nproc(), "cpu_model": None,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "seed": seed}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                rec[f"l{level}_size"] = (index / "size").read_text().strip()
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    rec["blas_threads"] = _blas_threads()
    rec["git_commit"] = _git_commit()
    digest = hashlib.sha256()
    for path in sorted((SRC / "psqm").glob("*.py")):
        digest.update(path.read_bytes())
    rec["src_sha256"] = digest.hexdigest()
    return rec


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it is one."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _timed(run, inputs, checks) -> float:
    t0 = perf_counter()
    run(inputs, checks)
    return perf_counter() - t0


def measure(run, inputs, checks, seconds: float) -> dict:
    """Untraced iterations, at least MIN_ITERATIONS, until the next one
    would overrun `seconds`."""
    times = []
    start = perf_counter()
    while True:
        times.append(_timed(run, inputs, checks))
        elapsed = perf_counter() - start
        if (len(times) >= MIN_ITERATIONS
                and elapsed + statistics.median(times) > seconds):
            return {"times": times}


def measure_traced(run, inputs, checks, seconds: float, tr) -> dict:
    """Pairs of one untraced and one traced iteration, until the next
    pair would overrun `seconds`.  The untraced iteration runs first, so
    both see the same warm caches."""
    plain, traced, summaries, counts = [], [], [], []
    start = perf_counter()
    while True:
        plain.append(_timed(run, inputs, checks))
        tr.reset()
        tr.install()
        try:
            traced.append(_timed(run, inputs, checks))
        finally:
            tr.uninstall()
        summary = tr.summary()
        summaries.append(summary)
        counts.append(({k: v["calls"] for k, v in summary.items()}, tr.bytes_computed))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p + t for p, t in zip(plain, traced)) > seconds:
            break
    checks.require("trace.counts_repeat", all(c == counts[0] for c in counts),
                   "per-layer counts differ between traced iterations")
    t0 = tr.spans[0][2] if tr.spans else 0.0
    spans = [[name, parent, s0 - t0, s1 - t0] for name, parent, s0, s1 in tr.spans]
    return {"times": plain, "traced_times": traced, "summaries": summaries, "bytes_computed": counts[0][1], "spans": spans}


def per_layer(workloads, inputs, result) -> dict:
    summaries = result["summaries"]
    reports = getattr(inputs, "reports", None)
    margins = workloads.worst_margins(reports[-1]) if reports else {}
    below = statistics.median(
        sum(v["self_s"] for k, v in s.items() if not k.startswith(("verify.", "cli.")))
        / t for s, t in zip(summaries, result["traced_times"]))
    special = {
        "fourier.bytes_computed": result["bytes_computed"],
        "trace.overhead_s": (statistics.median(result["traced_times"])
                             - statistics.median(result["times"])),
        "trace.below_verify_self_frac": below,
    }
    metrics = {}
    for name, unit, _ in tracer.layer_metrics():
        base, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif field == "worst_margin":
            value = margins.get(base.split(".")[1], 0.0)
        elif field == "calls":
            value = summaries[0].get(base, {}).get("calls", 0)
        else:
            # verify.<suite>.wall_s is the suite span's total time
            key = "total_s" if field == "wall_s" else field
            value = statistics.median(s.get(base, {}).get(key, 0.0) for s in summaries)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "psqm" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no psqm sources under {SRC}; run from a psqm checkout\n")
        return 2
    _limit_blas_threads()
    workdir = _workdir(args)
    if args.probe_setup:
        t0 = perf_counter()
        _setup(args, workdir / "probe")
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    setup_times = [_probe_setup_s(args) for _ in range(SETUP_REPEATS)]
    t0 = perf_counter()
    workloads, run, inputs = _setup(args, workdir)
    main_setup_s = perf_counter() - t0

    checks = workloads.Checks()
    if args.trace:
        result = measure_traced(run, inputs, checks, args.seconds, tracer.Tracer())
    else:
        result = measure(run, inputs, checks, args.seconds)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(args.seed),
        "iteration_s": result["times"],
        "iteration_median_s": statistics.median(result["times"]),
        "setup_probe_s": setup_times,
        "main_setup_s": main_setup_s,
        "checks_attempted": checks.attempted, "checks_failed": checks.failed,
        "checks_failed_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures[:50],
        "worst_margin": checks.margins,
    }
    if args.trace:
        metrics = per_layer(workloads, inputs, result)
        record["traced_iteration_s"] = result["traced_times"]
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": {"value": min(result["times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    record["metrics"] = metrics

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        # the last traced iteration's spans: [name, parent index, start, end]
        spans_path.write_text(json.dumps({"spans": result["spans"]}))
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"checks_failed_frac = {record['checks_failed_frac']:.4g}")
    for line in checks.failures[:10]:
        print(f"  FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
