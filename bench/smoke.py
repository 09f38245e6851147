"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 bench/smoke.py

Run from the root of the checkout. It checks that
  - every metric BENCHMARK.json names is emitted, with its unit, on every
    workload, with tracing off (end-to-end) and on (per-layer);
  - every name matches [A-Za-z0-9_.-]+;
  - a changed seed changes the Monte Carlo metrics but not exact counts;
  - in a directory holding only BENCHMARK.json and the benchmark, run.py
    exits with a nonzero code and prints no result.
It is not part of the tier-1 tests: it runs the benchmark, not the library.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: change with the seed: Monte Carlo estimates
SEEDED = {0: ("density_l1",), 1: ("entropy.mc_se", "entropy.girsanov_gap")}
#: must not change with the seed: exact counts
EXACT = {0: ("pass_fraction",),
         1: ("bridge.solve_iters", "sde.drift_lookup_calls", "kernels.kernel_mb",
             "sde.ensemble_mb")}


def run(workload: str, seed: int, trace: int, cwd: str = ROOT, stderr=None):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr, text=True,
                          timeout=170)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, f"{workload} seed {seed} trace {trace}: exit {proc.returncode}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    return out["metrics"]


def check_empty_directory(spec: dict) -> None:
    empty = os.path.join(HERE, "out", "smoke_empty")
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(empty, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    try:
        proc = run(spec["workloads"][0]["name"], 1, 0, cwd=empty, stderr=subprocess.PIPE)
        assert proc.returncode != 0, "run.py succeeded without the sbridge sources"
        assert proc.stdout.strip() == "", f"printed a result: {proc.stdout!r}"
    finally:
        shutil.rmtree(empty)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for names in wanted.values():
        for name in names:
            assert NAME.fullmatch(name), f"bad metric name {name!r}"

    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"]), f"bad workload name {w['name']!r}"
        for trace, names in wanted.items():
            first = result(w["name"], 1, trace)
            second = result(w["name"], 2, trace)
            for got in (first, second):
                assert set(got) == set(names), (w["name"], set(got) ^ set(names))
                for name, unit in names.items():
                    assert got[name]["unit"] == unit, (name, got[name]["unit"], unit)
                    assert isinstance(got[name]["value"], float), name
            for name in SEEDED[trace]:
                assert first[name]["value"] != second[name]["value"], (w["name"], name)
            for name in EXACT[trace]:
                assert first[name]["value"] == second[name]["value"], (w["name"], name)
        print(f"{w['name']}: ok")

    check_empty_directory(spec)
    print("empty directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
