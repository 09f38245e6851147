"""Benchmark of the sbridge paper pipelines.

    python3 bench/run.py --workload fortet_wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: sbridge is imported from ./src and nowhere
else. The load is a closed loop with one client: pipelines run one after
another, each in a fresh worker process, until --seconds have passed. With
--trace 0 every pipeline is untraced and the end-to-end metrics are printed;
with --trace 1 untraced and traced pipelines alternate and the per-layer
metrics are printed. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. Full records (machine block,
every check, spans of traced pipelines) go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 150
#: worker exit code when sbridge cannot be imported from the checkout
NO_PACKAGE = 3
#: BLAS / OpenMP thread variables, all capped at the cores this process may use
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so a parent and its worker can subtract stamps
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("nelson_recondition", "fortet_wide", "fortet_narrow"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy sizes only exercise the code (smoke test)")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# worker: one fresh process, one pipeline


def _blas_info(np) -> dict:
    """BLAS library from numpy's build record and the thread count it runs with."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            info["threads"] = get()
    return info


def worker(args) -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    try:
        import sbridge
    except ImportError as exc:
        print(f"cannot import sbridge from {src}: {exc}", file=sys.stderr)
        return NO_PACKAGE
    if not os.path.abspath(sbridge.__file__).startswith(src + os.sep):
        print(f"sbridge was imported from {sbridge.__file__}, not {src}", file=sys.stderr)
        return NO_PACKAGE

    import resource
    import traceback
    import warnings

    import numpy as np
    import scipy

    import workloads
    from spans import Tracer

    seeds = [int(s) for s in np.random.SeedSequence([args.seed, args.rep]).generate_state(2)]
    record = {"rep": args.rep, "traced": bool(args.traced), "seeds": seeds}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inputs = workloads.build_inputs(args.workload, args.size)
        record["setup_s"] = _now() - args.spawned_at
        tracer = Tracer(bool(args.traced), f"{args.workload}-{args.seed}-{args.rep}")
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span("pipeline"):
                out = workloads.run_pipeline(args.workload, inputs, seeds, tracer)
        except Exception as exc:  # one failed pipeline is reported, not fatal
            traceback.print_exc()
            record["failed"] = type(exc).__name__
            out = None
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["warnings"] = [type(w.message).__name__ for w in caught]
    if out is not None:
        record.update(out)
        record["counts"] = {
            **metrics.class_counts([c["error"] for c in out["checks"] if not c["ok"]],
                                   metrics.FAILURE_CLASSES, "fail"),
            **metrics.class_counts(record["warnings"], metrics.WARNING_CLASSES, "warn"),
        }
        if args.traced:
            record["layers"] = metrics.layer_figures(tracer.spans, out["figures"])
            record["spans"] = tracer.records()
    record["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "blas": _blas_info(np)}
    print(json.dumps(record))
    return 0


# --------------------------------------------------------------------------
# parent: closed loop of workers, aggregation


def run_worker(args, rep: int, traced: bool) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--rep", str(rep), "--traced", str(int(traced)),
           "--spawned-at", repr(_now())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode == NO_PACKAGE:
        raise SystemExit(2)
    if proc.returncode != 0:
        return {"rep": rep, "traced": traced, "failed": f"worker exit {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values: list) -> tuple:
    """(p, value): the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    ordered = sorted(values)
    k = n - 11  # ten samples lie above ordered[k]
    return round(100.0 * (k + 1) / n, 1), ordered[k]


def machine_block(records: list, workload_figures: dict) -> dict:
    versions = next((r["versions"] for r in records if "versions" in r), {})
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join("src", "sbridge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        llc = ""
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": _nproc(),
        **versions,
        "threads_set": {var: str(_nproc()) for var in THREAD_VARS},
        "llc_mb": int(llc) / 2**20 if llc.isdigit() else None,
        "working_set_mb": workload_figures,
    }


def aggregate(args, records: list) -> dict:
    done = [r for r in records if "failed" not in r]
    if not done:
        raise SystemExit(1)
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        raise SystemExit(1)
    checks = [c for r in done for c in r["checks"]]
    failed_checks = [c for c in checks if not c["ok"]]
    correct = len(done) == len(records) and all(
        c["ok"] or c["statistical"] or c["seed_failure"] for c in checks)
    fail_fraction = len(failed_checks) / len(checks)
    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers.update({name: statistics.median(r["counts"][name] for r in done)
                       for name in done[0]["counts"]})
        layers["fail_fraction"] = fail_fraction
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(walls) - 1.0)
        values, units = layers, metrics.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in done),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
            "pass_fraction": 1.0 - fail_fraction,
            # Monte Carlo estimate: the mean over pipelines spreads less than the median
            "density_l1": statistics.mean(r["figures"]["density_l1"] for r in done),
        }
        units = metrics.END_TO_END
    p, p_value = _tail(walls)
    return {
        "result": {
            "correct": correct,
            "attempted": len(records),
            "failed": len(records) - len(done),
            "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        },
        "wall_s": {"median": statistics.median(walls), "tail_percentile": p,
                   "tail_value": p_value, "samples": len(walls)},
        "fail_fraction": fail_fraction,
        "failures": sorted({(c["name"], c["error"]) for c in failed_checks}),
        "working_set_mb": {k: done[0]["figures"][k] for k in ("ensemble_mb", "kernel_mb")
                           if k in done[0]["figures"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        sys.path.insert(0, HERE)
        return worker(args)
    if not os.path.isfile(os.path.join("src", "sbridge", "__init__.py")):
        print("run from the root of an sbridge checkout: src/sbridge is missing",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    records = []
    # untraced runs need one pipeline at least; traced runs alternate, starting untraced
    while not records or time.perf_counter() < deadline or (
            args.trace and len(records) < 2):
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_worker(args, len(records), traced))

    summary = aggregate(args, records)
    summary["machine"] = machine_block(records, summary.pop("working_set_mb"))
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"args": vars(args), **summary, "pipelines": records}, fh, indent=1)
    print("machine " + json.dumps(summary["machine"]))
    print("wall_s " + json.dumps(summary["wall_s"]))
    print("failures " + json.dumps({"fail_fraction": summary["fail_fraction"],
                                    "checks": summary["failures"]}))
    print(json.dumps(summary["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
